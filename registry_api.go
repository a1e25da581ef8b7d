package bulkgcd

import (
	"fmt"
	"math/big"

	"bulkgcd/internal/obs"
	"bulkgcd/internal/registry"
)

// VerdictKind classifies the outcome of one registry submission.
type VerdictKind int

const (
	// VerdictClean: the key shares no factor with any registered key.
	VerdictClean VerdictKind = iota
	// VerdictShared: the key shares at least one prime with registered
	// keys; both sides are broken.
	VerdictShared
	// VerdictDuplicate: the exact modulus is already registered (it is
	// still accepted, and any shared factors are reported too).
	VerdictDuplicate
	// VerdictMalformed: the submission is not a plausible RSA modulus
	// (zero or even) and was rejected without consuming an index.
	VerdictMalformed
)

// String returns the verdict name: "clean", "shared", "duplicate" or
// "malformed".
func (k VerdictKind) String() string {
	switch k {
	case VerdictClean:
		return "clean"
	case VerdictShared:
		return "shared"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictMalformed:
		return "malformed"
	}
	return fmt.Sprintf("VerdictKind(%d)", int(k))
}

// KeyPartner is one registered key sharing a factor with a submission.
type KeyPartner struct {
	// Index is the partner's registry index.
	Index int
	// Factor is the shared factor, gcd of the two moduli.
	Factor *big.Int
	// Duplicate reports that the partner is the identical modulus.
	Duplicate bool
}

// KeyVerdict is the registry's answer to one submission: the batch-GCD
// outcome of the key against the corpus registered before it, computed
// from its batch check and durable before it is returned.
type KeyVerdict struct {
	// Index is the key's position in the registry corpus, -1 when the
	// submission was rejected as malformed.
	Index int
	// Kind classifies the outcome.
	Kind VerdictKind
	// Reason explains a malformed rejection.
	Reason string
	// G is gcd(n, Π registered moduli mod n), the per-key batch-GCD
	// value at submission time: 1 for a clean key, the shared portion
	// (possibly n itself) otherwise.
	G *big.Int
	// Partners lists the registered keys sharing a factor, by index.
	Partners []KeyPartner
}

// BrokenModulus is one registry key known to share factors.
type BrokenModulus struct {
	// Index is the registry index and N the modulus.
	Index int
	N     *big.Int
	// G is the accumulated shared portion of N (the fold of every
	// factor discovered so far), byte-identical to the batch-GCD g_i
	// over the registry corpus.
	G *big.Int
}

// RegistryStats is a point-in-time snapshot of registry counters.
type RegistryStats struct {
	// Keys is the corpus size, Broken the number of keys known to share
	// factors.
	Keys, Broken int
	// Submissions counts the keys passed to Submit and SubmitBatch,
	// malformed ones included.
	Submissions int64
	// SpineMults counts product-tree merge multiplications (amortized
	// one per accepted key); Replayed counts verdicts recomputed during
	// OpenRegistry after an unclean shutdown; NodeLoads and NodeBuilds
	// count tree nodes reloaded from disk and rebuilt from their leaves.
	SpineMults, Replayed, NodeLoads, NodeBuilds int64
}

// Registry is a long-lived, crash-safe key registry: a persistent
// product-tree index over every submitted modulus. Submissions are
// checked against the full history in chunks of up to 256 keys instead
// of a full rescan: one fold of the forest roots per chunk, pushed down
// the chunk's product tree by one prefix descent, then one GCD per key,
// with a forest descent only for a key that shares a factor. Each
// verdict is journaled before it is acknowledged and replayed to an
// identical state after a kill+restart.
//
// Open one with [OpenRegistry]; it is safe for concurrent use.
type Registry struct {
	reg     *registry.Registry
	metrics *obs.Registry
	a       *Attack // the options the registry was opened with
}

// OpenRegistry opens the persistent key registry rooted at dir, creating
// it if absent, and replays its journal so the in-memory index is
// byte-identical to the state before the last shutdown — clean or not.
//
// The option vocabulary is shared with [New]; OpenRegistry honors
// [WithWorkers] (the pool of each check's forest fold, product tree
// and prefix descent and of tree node rebuilds), [WithMetrics] (a
// Prometheus snapshot is written on Close) and [WithTrace] (one span
// per submission).
// Options that configure the pairwise attack (engine, algorithm,
// checkpoint path, quarantine) do not apply to a registry and are
// ignored: its descents run on the product-tree forest, not a per-pair
// GCD kernel.
func OpenRegistry(dir string, opts ...Option) (*Registry, error) {
	a := New(opts...)
	reg := obs.NewRegistry()
	cfg := registry.Config{
		Workers: a.workers,
		Metrics: reg,
	}
	if a.traceW != nil {
		cfg.Trace = obs.NewTracer(a.traceW)
	}
	r, err := registry.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &Registry{reg: r, metrics: reg, a: a}, nil
}

func publicVerdict(v registry.Verdict) KeyVerdict {
	out := KeyVerdict{Index: v.Index, Reason: v.Reason, G: v.G}
	switch v.Kind {
	case registry.Shared:
		out.Kind = VerdictShared
	case registry.Duplicate:
		out.Kind = VerdictDuplicate
	case registry.Malformed:
		out.Kind = VerdictMalformed
	}
	for _, p := range v.Partners {
		out.Partners = append(out.Partners, KeyPartner{Index: p.Index, Factor: p.Factor, Duplicate: p.Dup})
	}
	return out
}

// Submit registers one modulus and returns its verdict. The verdict is
// durable (corpus line and journal record synced) before Submit returns:
// after a crash, OpenRegistry replays to a state that includes it.
func (r *Registry) Submit(n *big.Int) (KeyVerdict, error) {
	v, err := r.reg.Submit(n)
	if err != nil {
		return KeyVerdict{}, err
	}
	return publicVerdict(v), nil
}

// SubmitBatch registers a batch of moduli in order, returning one
// verdict per modulus. The whole batch shares one durability sync and
// is checked against the registry a chunk of up to 256 keys at a time,
// so large batches are much cheaper than equivalent Submit loops; the
// verdicts are those of the same keys submitted one at a time. A batch
// holding a nil or negative modulus fails as a whole and writes
// nothing: no key of it is registered, so a retry without the bad
// modulus gets the verdicts a registry that never saw the failed call
// gives.
func (r *Registry) SubmitBatch(moduli []*big.Int) ([]KeyVerdict, error) {
	vs, err := r.reg.SubmitBatch(moduli)
	if err != nil {
		return nil, err
	}
	out := make([]KeyVerdict, len(vs))
	for i, v := range vs {
		out[i] = publicVerdict(v)
	}
	return out, nil
}

// Broken lists every registry key known to share factors, ordered by
// index. The G values are byte-identical to what one batch-GCD run over
// the full registry corpus would report for those keys.
func (r *Registry) Broken() []BrokenModulus {
	bs := r.reg.Broken()
	out := make([]BrokenModulus, len(bs))
	for i, b := range bs {
		out[i] = BrokenModulus{Index: b.Index, N: r.reg.Modulus(b.Index), G: b.G}
	}
	return out
}

// Len returns the number of registered keys.
func (r *Registry) Len() int { return r.reg.Len() }

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() RegistryStats {
	s := r.reg.Stats()
	return RegistryStats{
		Keys:        s.Keys,
		Broken:      s.Broken,
		Submissions: s.Submissions,
		SpineMults:  s.SpineMults,
		Replayed:    s.Replayed,
		NodeLoads:   s.NodeLoads,
		NodeBuilds:  s.NodeBuilds,
	}
}

// Close syncs and closes the registry's logs and journal and — when the
// registry was opened [WithMetrics] — writes a final Prometheus snapshot
// to the configured writer.
func (r *Registry) Close() error {
	err := r.reg.Close()
	if r.a.metricsW != nil {
		if werr := r.metrics.Snapshot().WritePrometheus(r.a.metricsW); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}
