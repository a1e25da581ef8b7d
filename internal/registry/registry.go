// Package registry implements the streaming incremental key registry:
// a long-lived, crash-safe index over every modulus ever submitted,
// maintained as a binary-counter forest of perfect product subtrees so
// each arriving key is checked against the full history with one
// remainder fold and one GCD instead of a full batch rescan.
//
// Layout on disk (one directory per registry):
//
//	corpus.log   append-only hex lines — the source of truth
//	removed.log  append-only tombstoned indices
//	journal.jsonl  growable checkpoint journal: one verdict record per
//	               accepted key, bound to the corpus by a prefix hash
//	               chain (checkpoint.Chain)
//	nodes/       product-tree node files — a validated, rebuildable cache
//
// Durability argument: a submission is acknowledged only after its
// corpus line and its journal record are synced. The corpus log alone
// determines every verdict (checks are deterministic), so any crash
// reduces to one of three states Open repairs mechanically: a torn
// corpus line (dropped — the key was never acknowledged), a corpus line
// without a journal record (the verdict is recomputed during replay),
// or both present (the record's chain value must match the replayed
// corpus prefix). Node files carry fingerprints binding them to the
// exact corpus slice they multiply, so a stale or torn node file costs
// a rebuild, never a wrong verdict.
package registry

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/corpus"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/subprod"
)

// Seed is the chain seed and journal fingerprint of every registry
// journal; the format version is part of it.
const Seed = "bulkgcd.registry.v1"

var one = big.NewInt(1)

// journalHeader is the constant header of a registry journal. Units is
// the count at creation time only (Grow accepts records beyond it), so
// keeping it constant lets checkpoint.Begin's equality check hold across
// every reopen of a registry that has grown in between.
func journalHeader() checkpoint.Header {
	return checkpoint.Header{V: checkpoint.Version, Engine: "registry", Fingerprint: Seed, Units: 1, Grow: true}
}

// Kind classifies a submission verdict.
type Kind int

const (
	// Clean: the key shares no factor with any prior live key.
	Clean Kind = iota
	// Shared: the key shares at least one prime with a prior key; both
	// are broken.
	Shared
	// Duplicate: an identical modulus already exists in the corpus. The
	// key is still accepted (the batch oracle sees duplicates too), and
	// it may simultaneously share primes with further keys.
	Duplicate
	// Malformed: zero or even modulus; rejected, not added to the corpus.
	Malformed
)

func (k Kind) String() string {
	switch k {
	case Clean:
		return "clean"
	case Shared:
		return "shared-factor"
	case Duplicate:
		return "duplicate"
	case Malformed:
		return "malformed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Partner is one historical key the submitted key shares content with.
type Partner struct {
	// Index is the partner's corpus index.
	Index int
	// Factor is gcd(n, n_partner) > 1: the partner's modulus itself for
	// a duplicate, a shared prime (or product of shared primes) otherwise.
	Factor *big.Int
	// Dup marks an identical modulus.
	Dup bool
}

// Verdict is the outcome of one submission, computed against the corpus
// as it stood at submission time.
type Verdict struct {
	// Index is the key's corpus index, or -1 when rejected (Malformed).
	Index int
	// Kind classifies the verdict.
	Kind Kind
	// Reason explains a Malformed rejection.
	Reason string
	// G is gcd(n, product of all prior live keys): 1 when Clean.
	G *big.Int
	// Partners lists every prior key sharing content with this one,
	// ascending by index. Each partner is newly broken (or newly
	// re-confirmed) by this submission.
	Partners []Partner
}

// Finding is one pairwise discovery streamed on the findings channel:
// keys Index and Partner (Partner < Index) share Factor.
type Finding struct {
	Index   int
	Partner int
	Factor  *big.Int
}

// Config controls an open registry.
type Config struct {
	// Workers sizes the worker pool for large subtree (re)builds
	// (0 = GOMAXPROCS).
	Workers int
	// NodeBudget caps the bytes of product-tree nodes held in RAM;
	// least-recently-used nodes spill to their files and reload on
	// demand. 0 means unlimited.
	NodeBudget int64
	// FindingsBuffer is the findings channel capacity (0 = 64). The
	// channel is a convenience stream: when no receiver keeps up the
	// send is dropped (counted in registry_findings_dropped_total), and
	// every finding remains recoverable from Broken and the journal.
	FindingsBuffer int
	// Metrics receives the registry's instruments (may be nil).
	Metrics *obs.Registry
	// Trace receives one span per submission (may be nil).
	Trace *obs.Tracer
}

// Stats is a point-in-time view of the registry's counters.
type Stats struct {
	Keys        int   // accepted keys (including tombstoned)
	Removed     int   // tombstoned keys
	Broken      int   // keys with a known shared factor
	Submissions int64 // submissions processed this session
	Findings    int64 // pairwise findings this session
	SpineMults  int64 // spine merge multiplications this session
	Replayed    int64 // verdicts recomputed during Open
	NodeLoads   int64 // node files loaded
	NodeBuilds  int64 // nodes rebuilt from children
	Dropped     int64 // findings channel drops
}

// Registry is the open registry. All methods are safe for concurrent
// use; submissions are serialized because each verdict depends on the
// corpus order.
type Registry struct {
	mu  sync.Mutex
	dir string
	cfg Config

	entries   []string // corpus.log lines, in order
	corpus    []*big.Int
	chain     *checkpoint.Chain
	chainVals []string
	removed   map[int]bool

	corpusF  *os.File
	removedF *os.File
	journal  *checkpoint.Writer
	store    *store

	// brokenG folds every pairwise finding per index (foldBroken) into
	// the batch oracle's g_i = gcd(n_i, prod of all other moduli). See
	// DESIGN.md 5i.
	brokenG map[int]*big.Int

	findings chan Finding
	closed   bool

	// Retained submit-path scratch, all used under mu, so a warm submit
	// allocates no arithmetic storage: the fold's accumulator, the
	// quotient and remainder QuoRem writes (both grow to the largest
	// spine root), the product scratch the fold and the spine merges
	// multiply into (subprod.Mul compacts what the forest keeps), the
	// spine-root list, and one descent scratch per pool worker (descents
	// over disjoint roots run on the work-stealing pool, and worker
	// indices are stable, so each scratch stays pinned to one goroutine
	// for the duration of a descent).
	acc, quo, rem, prod big.Int
	rootsBuf            []nodeKey
	descents            []*descentScratch

	submissions, found, spineMults, replayed, dropped *obs.Counter
	keysGauge                                         *obs.Gauge
	submitH                                           *obs.Histogram
	trace                                             *obs.Tracer
}

// Open opens (or creates) the registry directory at dir, replays the
// corpus log against the journal, and recomputes any verdict the
// journal does not durably cover. After Open the in-memory state is
// byte-identical to the state an uninterrupted run would have reached.
func Open(dir string, cfg Config) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, "nodes"), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	buf := cfg.FindingsBuffer
	if buf == 0 {
		buf = 64
	}
	r := &Registry{
		dir:      dir,
		cfg:      cfg,
		removed:  map[int]bool{},
		brokenG:  map[int]*big.Int{},
		chain:    checkpoint.NewChain(Seed),
		findings: make(chan Finding, buf),
		trace:    cfg.Trace,
	}
	// Stats() reads the instrument values, so the registry always keeps
	// a metrics registry — a private one when the caller did not supply
	// theirs.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.submissions = reg.Counter("registry_submissions_total")
	r.found = reg.Counter("registry_findings_total")
	r.spineMults = reg.Counter("registry_spine_mults_total")
	r.replayed = reg.Counter("registry_replayed_total")
	r.dropped = reg.Counter("registry_findings_dropped_total")
	r.keysGauge = reg.Gauge("registry_keys")
	r.submitH = reg.Histogram("registry_submit_seconds", obs.DurationBuckets())
	r.store = newStore(filepath.Join(dir, "nodes"), cfg.NodeBudget, cfg.Workers, reg)
	r.store.leafHex = r.leafHex
	r.store.leaf = r.leaf

	if err := r.loadCorpus(); err != nil {
		return nil, err
	}
	if err := r.loadRemoved(); err != nil {
		return nil, err
	}
	if err := r.replay(); err != nil {
		return nil, err
	}
	r.keysGauge.Set(float64(len(r.corpus)))
	return r, nil
}

// leafHex is the identity line of leaf i for node fingerprints: the
// corpus hex, or "-" once tombstoned (so node files built before a
// removal stop validating).
func (r *Registry) leafHex(i int) string {
	if r.removed[i] {
		return "-"
	}
	return r.entries[i]
}

// leaf is the value of leaf i: the modulus, or 1 once tombstoned. The
// value is shared and read-only.
func (r *Registry) leaf(i int) *big.Int {
	if r.removed[i] {
		return one
	}
	return r.corpus[i]
}

// loadCorpus reads corpus.log, drops a torn final line (rewriting the
// file so the append offset is clean), and opens it for appending.
func (r *Registry) loadCorpus() error {
	path := filepath.Join(r.dir, "corpus.log")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: %w", err)
	}
	good := 0 // byte offset after the last fully valid line
	for off := 0; off < len(data); {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// No trailing newline: a torn final append. Drop it.
			break
		}
		line := strings.TrimSpace(string(data[off:nl]))
		off = nl + 1
		if line == "" {
			good = off
			continue
		}
		n, ok := new(big.Int).SetString(line, 16)
		if !ok || n.Sign() < 0 {
			if off >= len(data) {
				break // torn final line that happened to include the newline
			}
			return fmt.Errorf("registry: corpus.log line %d: invalid hex modulus %q", len(r.entries)+1, line)
		}
		r.entries = append(r.entries, line)
		r.corpus = append(r.corpus, n)
		r.chainVals = append(r.chainVals, r.chain.Extend([]byte(line)))
		good = off
	}
	if good < len(data) {
		if err := os.WriteFile(path+".trunc", data[:good], 0o644); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		if err := os.Rename(path+".trunc", path); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.corpusF = f
	return nil
}

// loadRemoved reads the tombstone log and opens it for appending.
func (r *Registry) loadRemoved() error {
	path := filepath.Join(r.dir, "removed.log")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		i, perr := strconv.Atoi(line)
		if perr != nil || i < 0 || i >= len(r.corpus) {
			continue // torn or stale tombstone; ignoring it is safe
		}
		r.removed[i] = true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.removedF = f
	return nil
}

// replay reconciles the journal with the corpus: verified records are
// adopted as-is, anything else (torn tail, journal behind the corpus,
// fresh registry) is recomputed deterministically and journaled.
func (r *Registry) replay() error {
	jpath := filepath.Join(r.dir, "journal.jsonl")
	verified := map[int]checkpoint.Record{}
	if st, err := checkpoint.Load(jpath); err == nil {
		entryBytes := make([][]byte, len(r.entries))
		for i, e := range r.entries {
			entryBytes[i] = []byte(e)
		}
		if ok, err := st.VerifyChain(Seed, entryBytes); err == nil {
			verified = ok
		}
	}
	w, err := checkpoint.OpenAppend(jpath)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := w.Begin(journalHeader()); err != nil {
		w.Close()
		return fmt.Errorf("registry: %w", err)
	}
	r.journal = w

	recomputed := false
	for i, n := range r.corpus {
		if rec, ok := verified[i]; ok {
			for _, f := range rec.Factors {
				g, ok := new(big.Int).SetString(f.P, 16)
				if !ok || f.I != i || f.J < 0 || f.J >= i {
					return fmt.Errorf("registry: journal record %d carries an invalid finding", i)
				}
				r.foldBroken(i, f.J, g)
			}
			continue
		}
		// The corpus has this key but the journal does not durably cover
		// it (crash between corpus sync and journal sync, or a pre-journal
		// seed corpus). Recompute the verdict against the prefix forest —
		// the same computation the original submission performed.
		v := r.checkPrefix(n, i)
		if err := r.journalVerdict(i, v); err != nil {
			return err
		}
		for _, p := range v.Partners {
			r.foldBroken(i, p.Index, p.Factor)
			r.emit(Finding{Index: i, Partner: p.Index, Factor: p.Factor})
		}
		r.replayed.Inc()
		recomputed = true
	}
	if recomputed {
		if err := r.journal.Sync(); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	return nil
}

// foldBroken accumulates a pairwise finding g = gcd(n_i, n_j) into both
// endpoints' per-index factor: G_k <- gcd(n_k, G_k*g). For each prime
// power p^e exactly dividing n_k, with x_j the exponent of p in n_j, the
// fold keeps min(e, sum of min(e, x_j)) = min(e, sum of x_j), so G_k is
// batch GCD's g_k = gcd(n_k, prod of all other moduli) for every
// positive input, squarefree or not. Both corpus entries must be set.
func (r *Registry) foldBroken(i, j int, g *big.Int) {
	if g.Cmp(one) <= 0 {
		return
	}
	for _, idx := range [2]int{i, j} {
		cur, ok := r.brokenG[idx]
		if !ok {
			r.brokenG[idx] = new(big.Int).Set(g)
			continue
		}
		cur.GCD(nil, nil, r.corpus[idx], cur.Mul(cur, g))
	}
}

// checkPrefix computes the verdict of modulus n against the forest over
// the first m corpus keys: one remainder fold over the O(log m) spine
// roots, one GCD, and — only on a hit — a remainder-tree descent to the
// culprit leaves.
func (r *Registry) checkPrefix(n *big.Int, m int) Verdict {
	v := Verdict{Index: m, Kind: Clean}
	if m == 0 {
		v.G = big.NewInt(1)
		return v
	}
	// gcd(n, 0) = n covers the fold's early exit: n divides the product.
	v.G = new(big.Int).GCD(nil, nil, n, r.foldPrefix(n, m))
	if v.G.Cmp(one) == 0 {
		return v
	}
	// Hit: descend to the leaves that share content with n.
	v.Partners = r.descendRoots(r.rootsBuf, n)
	sort.Slice(v.Partners, func(a, b int) bool { return v.Partners[a].Index < v.Partners[b].Index })
	v.Kind = Shared
	for _, p := range v.Partners {
		if p.Dup {
			v.Kind = Duplicate
			break
		}
	}
	return v
}

// foldPrefix returns the product of the live keys among the first m,
// reduced mod n: each spine root of the forest over m leaves is reduced
// mod n with QuoRem and folded into the accumulator. It returns 0 as
// soon as n divides a root or the running product. The result and
// r.rootsBuf (the roots it folded) are retained scratch, valid until the
// next call.
func (r *Registry) foldPrefix(n *big.Int, m int) *big.Int {
	r.rootsBuf = appendRootsOf(r.rootsBuf[:0], m)
	acc := r.acc.SetInt64(1)
	for _, root := range r.rootsBuf {
		r.quo.QuoRem(r.store.value(root), n, &r.rem)
		if r.rem.Sign() == 0 {
			return acc.SetInt64(0)
		}
		r.prod.Mul(acc, &r.rem)
		r.quo.QuoRem(&r.prod, n, acc)
		if acc.Sign() == 0 {
			break
		}
	}
	return acc
}

// descentScratch is one worker's reusable state for a remainder-tree
// descent: the quotient and remainder QuoRem writes, the per-node GCD,
// and the partner accumulator. Owned by exactly one pool worker per
// descent, so nothing in it needs locking.
type descentScratch struct {
	quo, rem, gcd big.Int
	partners      []Partner
}

// descendRoots resolves a prefix hit to its culprit leaves. The spine
// roots cover disjoint leaf spans — no two descents can ever race on a
// node — so a multi-root forest fans the descents out across the
// work-stealing pool with one scratch per worker. Partners are
// concatenated in root order (spans ascend left to right) and sorted by
// index by the caller, so the verdict is byte-identical at every worker
// count. The spine-merge multiplications in appendLeaf stay serial:
// each merge consumes the previous one's product, a carry chain with no
// exploitable parallelism.
func (r *Registry) descendRoots(roots []nodeKey, n *big.Int) []Partner {
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	for len(r.descents) < workers {
		r.descents = append(r.descents, &descentScratch{})
	}
	if workers <= 1 {
		ds := r.descents[0]
		ds.partners = ds.partners[:0]
		for _, root := range roots {
			r.descend(ds, root, n)
		}
		return append([]Partner(nil), ds.partners...)
	}
	perRoot := make([][]Partner, len(roots))
	// context.Background: a descent is a short, bounded tree walk; the
	// registry has no cancellation surface to thread through here. The
	// error return is the context's, hence always nil.
	_ = engine.Run(context.Background(), len(roots), engine.PoolOptions{Workers: workers, Metrics: r.cfg.Metrics}, func(i, w int) {
		ds := r.descents[w]
		ds.partners = ds.partners[:0]
		r.descend(ds, roots[i], n)
		perRoot[i] = append([]Partner(nil), ds.partners...)
	})
	var out []Partner
	for _, ps := range perRoot {
		out = append(out, ps...)
	}
	return out
}

// descend prunes subtrees coprime with n and recurses into the rest;
// gcd(n, subproduct mod n) = gcd(n, subproduct), so the pruning is
// exact: every reported leaf really shares a factor. Partner factors
// are copied out of the scratch on a hit, so nothing in a returned
// Verdict aliases reusable state.
func (r *Registry) descend(ds *descentScratch, k nodeKey, n *big.Int) {
	if k.level == 0 {
		j := k.index
		if r.removed[j] {
			return
		}
		if g := ds.gcd.GCD(nil, nil, n, r.corpus[j]); g.Cmp(one) > 0 {
			f := new(big.Int).Set(g)
			ds.partners = append(ds.partners, Partner{Index: j, Factor: f, Dup: r.corpus[j].Cmp(n) == 0})
		}
		return
	}
	ds.quo.QuoRem(r.store.value(k), n, &ds.rem)
	if ds.rem.Sign() == 0 || ds.gcd.GCD(nil, nil, n, &ds.rem).Cmp(one) > 0 {
		r.descend(ds, nodeKey{k.level - 1, 2 * k.index}, n)
		r.descend(ds, nodeKey{k.level - 1, 2*k.index + 1}, n)
	}
}

// journalVerdict appends the verdict record for key i (not yet synced;
// Submit syncs before acknowledging, replay syncs once at the end).
func (r *Registry) journalVerdict(i int, v Verdict) error {
	rec := checkpoint.Record{Unit: i, Pairs: 1, Chain: r.chainVals[i]}
	for _, p := range v.Partners {
		rec.Factors = append(rec.Factors, checkpoint.Factor{I: i, J: p.Index, P: p.Factor.Text(16)})
	}
	if err := r.journal.Append(rec); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// appendLeaf admits corpus entry i into the forest: the binary-counter
// carry, merging equal-size siblings up the rightmost spine. Amortized
// one multiplication per append, worst case log2(i). Each merge
// multiplies into the retained product scratch and keeps a compact copy.
func (r *Registry) appendLeaf(i int) {
	l, idx := 0, i
	for idx&1 == 1 {
		left := r.store.value(nodeKey{l, idx - 1})
		right := r.store.value(nodeKey{l, idx})
		parent := subprod.Mul(&r.prod, left, right)
		r.spineMults.Inc()
		l++
		idx >>= 1
		r.store.put(nodeKey{l, idx}, parent)
	}
}

// emit sends a finding without blocking; a full channel drops the send
// (the finding stays durable in the journal and visible via Broken).
func (r *Registry) emit(f Finding) {
	select {
	case r.findings <- f:
		r.found.Inc()
	default:
		r.dropped.Inc()
	}
}

// Submit checks one modulus against the full history and, unless
// malformed, appends it to the corpus. It returns after the corpus line
// and the journal record are on stable storage. The error is non-nil
// only for operational failures (closed registry, I/O); a malformed key
// is a Verdict, not an error.
func (r *Registry) Submit(n *big.Int) (Verdict, error) {
	vs, err := r.SubmitBatch([]*big.Int{n})
	if err != nil {
		return Verdict{}, err
	}
	return vs[0], nil
}

// SubmitBatch submits a batch in order: each key's verdict accounts for
// every earlier key, including earlier keys of the same batch. The
// corpus log and journal are synced once per batch, so batching
// amortizes the two fsyncs that dominate small-key submission cost.
func (r *Registry) SubmitBatch(ns []*big.Int) ([]Verdict, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("registry: closed")
	}
	out := make([]Verdict, 0, len(ns))
	accepted := false
	for _, n := range ns {
		v, err := r.submitLocked(n)
		if err != nil {
			return nil, err
		}
		if v.Index >= 0 {
			accepted = true
		}
		out = append(out, v)
	}
	if accepted {
		if err := r.corpusF.Sync(); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		if err := r.journal.Sync(); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		r.keysGauge.Set(float64(len(r.corpus)))
	}
	return out, nil
}

func (r *Registry) submitLocked(n *big.Int) (Verdict, error) {
	start := time.Now()
	r.submissions.Inc()
	if n == nil || n.Sign() < 0 {
		return Verdict{}, fmt.Errorf("registry: modulus is nil or negative")
	}
	sp := r.trace.StartSpan("submit", "index", len(r.corpus))
	if reason := corpus.ValidateBig(n); reason != "" {
		sp.End("verdict", Malformed.String())
		r.submitH.ObserveDuration(int64(time.Since(start)))
		return Verdict{Index: -1, Kind: Malformed, Reason: reason, G: new(big.Int).SetInt64(1)}, nil
	}

	i := len(r.corpus)
	m := new(big.Int).Set(n) // the caller keeps n
	v := r.checkPrefix(m, i)

	// Durability order: corpus line first (the truth), then the forest,
	// then the journal record. A crash between the first and the last
	// leaves a corpus entry whose verdict replay recomputes.
	hexLine := m.Text(16)
	if _, err := r.corpusF.WriteString(hexLine + "\n"); err != nil {
		return Verdict{}, fmt.Errorf("registry: %w", err)
	}
	r.entries = append(r.entries, hexLine)
	r.corpus = append(r.corpus, m)
	r.chainVals = append(r.chainVals, r.chain.Extend([]byte(hexLine)))
	r.appendLeaf(i)
	if err := r.journalVerdict(i, v); err != nil {
		return Verdict{}, err
	}
	for _, p := range v.Partners {
		r.foldBroken(i, p.Index, p.Factor)
		r.emit(Finding{Index: i, Partner: p.Index, Factor: p.Factor})
	}
	sp.End("verdict", v.Kind.String(), "partners", len(v.Partners))
	r.submitH.ObserveDuration(int64(time.Since(start)))
	return v, nil
}

// Findings returns the stream of pairwise discoveries. The channel is
// closed by Close. It is a lossy convenience: a full buffer drops sends
// (counted), and every finding stays recoverable from Broken.
func (r *Registry) Findings() <-chan Finding { return r.findings }

// Len returns the number of accepted keys (including tombstoned ones).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.corpus)
}

// Modulus returns the registered modulus at index, or nil when the
// index is out of range.
func (r *Registry) Modulus(index int) *big.Int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if index < 0 || index >= len(r.corpus) {
		return nil
	}
	return new(big.Int).Set(r.corpus[index])
}

// NoteDroppedFinding counts a finding dropped by a delivery layer above
// the registry (the public channel forwarder), so DroppedFindings stays
// honest however the findings reach the consumer.
func (r *Registry) NoteDroppedFinding() { r.dropped.Inc() }

// BrokenKey is one corpus index with its accumulated shared factor.
type BrokenKey struct {
	Index int
	// G is the fold of every pairwise finding touching Index. It equals
	// the batch oracle's gcd(n_i, product of all other moduli).
	G *big.Int
}

// Broken returns every key with a known shared factor, ascending by
// index. The G values are byte-identical to batchgcd.SharedFactorsContext over
// the same corpus (see the differential suite).
func (r *Registry) Broken() []BrokenKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BrokenKey, 0, len(r.brokenG))
	for i, g := range r.brokenG {
		out = append(out, BrokenKey{Index: i, G: new(big.Int).Set(g)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Remove tombstones key i: it stays in the corpus log (indices are
// stable forever) but is excluded from every future product and
// verdict. The tombstone is durable before Remove returns. Historical
// findings involving i are kept — they were true when found.
func (r *Registry) Remove(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("registry: closed")
	}
	if i < 0 || i >= len(r.corpus) {
		return fmt.Errorf("registry: index %d out of range [0,%d)", i, len(r.corpus))
	}
	if r.removed[i] {
		return nil
	}
	if _, err := r.removedF.WriteString(strconv.Itoa(i) + "\n"); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := r.removedF.Sync(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.removed[i] = true
	for _, k := range ancestorsOf(i, len(r.corpus)) {
		r.store.invalidate(k)
	}
	return nil
}

// Compact rewrites the journal to its minimal form, prunes node files
// that are no longer forest nodes, and rebuilds the spine roots (which
// re-validates every node an active check can reach transitively).
// Returns journal lines dropped plus node files pruned.
func (r *Registry) Compact() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("registry: closed")
	}
	if err := r.journal.Close(); err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	dropped, err := checkpoint.Compact(filepath.Join(r.dir, "journal.jsonl"))
	if err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	w, err := checkpoint.OpenAppend(filepath.Join(r.dir, "journal.jsonl"))
	if err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	if err := w.Begin(journalHeader()); err != nil {
		w.Close()
		return 0, fmt.Errorf("registry: %w", err)
	}
	r.journal = w
	pruned, err := r.store.prune(len(r.corpus))
	if err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	for _, root := range rootsOf(len(r.corpus)) {
		r.store.value(root)
	}
	return dropped + pruned, nil
}

// Stats returns a point-in-time view of the registry's counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Keys:        len(r.corpus),
		Removed:     len(r.removed),
		Broken:      len(r.brokenG),
		Submissions: r.submissions.Value(),
		Findings:    r.found.Value(),
		SpineMults:  r.spineMults.Value(),
		Replayed:    r.replayed.Value(),
		NodeLoads:   r.store.loads.Value(),
		NodeBuilds:  r.store.builds.Value(),
		Dropped:     r.dropped.Value(),
	}
}

// Close syncs and closes the logs and the journal and closes the
// findings channel. The registry is unusable afterwards; reopen with
// Open.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.findings)
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(r.corpusF.Sync())
	keep(r.corpusF.Close())
	keep(r.removedF.Sync())
	keep(r.removedF.Close())
	keep(r.journal.Close())
	if first != nil {
		return fmt.Errorf("registry: %w", first)
	}
	return nil
}
