// Package registry implements the streaming incremental key registry:
// a long-lived, crash-safe index over every modulus ever submitted,
// maintained as a binary-counter forest of perfect product subtrees so
// each arriving batch is checked against the full history with one
// remainder fold per chunk of up to 256 keys, one prefix descent of the
// chunk's product tree and one GCD per key, instead of a full batch
// rescan.
//
// Layout on disk (one directory per registry):
//
//	corpus.log   append-only hex lines — the source of truth
//	removed.log  append-only tombstoned indices
//	journal.jsonl  growable checkpoint journal: one verdict record per
//	               accepted key, bound to the corpus by a prefix hash
//	               chain (checkpoint.Chain)
//	nodes/       files for product-tree nodes of 256 leaves or more — a
//	             validated, rebuildable cache
//
// In memory the forest's nodes live in one map that only code holding
// the registry's lock touches; a hit's descent to its partner leaves
// runs serially under that lock.
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
	"errors"
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
	// Malformed: zero or even modulus, or one longer than maxKeyBits;
	// rejected, not added to the corpus.
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
	// Workers sizes the worker pool of a check's chunk tree and prefix
	// descent and of node rebuilds (0 = GOMAXPROCS). A hit's forest
	// descent runs serially under the registry lock.
	Workers int
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
	NodeBuilds  int64 // nodes rebuilt from their leaves
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
	// allocates arithmetic storage only for its chunk's tree and
	// residues (one key's residue for a one-key submit): the fold's
	// accumulator, the quotient and remainder QuoRem writes (both grow
	// to the largest spine root; the fold and the descent take turns
	// with them), the product scratch the fold and the spine merges
	// multiply into (subprod.Mul compacts what the forest keeps), the
	// descent's per-node GCD and partner list, and the spine-root list.
	acc, quo, rem, prod, gcd big.Int
	partners                 []Partner
	rootsBuf                 []nodeKey

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
	r.store = newStore(filepath.Join(dir, "nodes"), r.workers(), reg)
	r.store.leafHex = r.leafHex
	r.store.leaf = r.leaf

	err := r.loadCorpus()
	if err == nil {
		err = r.loadRemoved()
	}
	if err == nil {
		err = r.replay()
	}
	if err != nil {
		r.closeFiles()
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
	w, err := openJournal(jpath)
	if err != nil {
		return err
	}
	r.journal = w

	recomputed := false
	for i := 0; i < len(r.corpus); {
		if rec, ok := verified[i]; ok {
			for _, f := range rec.Factors {
				g, ok := new(big.Int).SetString(f.P, 16)
				if !ok || f.I != i || f.J < 0 || f.J >= i {
					return fmt.Errorf("registry: journal record %d carries an invalid finding", i)
				}
				r.foldBroken(i, f.J, g)
			}
			i++
			continue
		}
		// The corpus has keys the journal does not durably cover (crash
		// between corpus sync and journal sync, or a pre-journal seed
		// corpus). Recompute the run's verdicts as one batch, the same
		// computation their submission performed.
		hi := i + 1
		for hi < len(r.corpus) {
			if _, ok := verified[hi]; ok {
				break
			}
			hi++
		}
		err := r.checkRun(i, hi, func(v Verdict) error {
			if err := r.journalVerdict(v.Index, v); err != nil {
				return err
			}
			for _, p := range v.Partners {
				r.foldBroken(v.Index, p.Index, p.Factor)
				r.emit(Finding{Index: v.Index, Partner: p.Index, Factor: p.Factor})
			}
			r.replayed.Inc()
			return nil
		})
		if err != nil {
			return err
		}
		i, recomputed = hi, true
	}
	if recomputed {
		if err := r.journal.Sync(); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	return nil
}

// openJournal opens the registry journal at path for appending and
// writes (or checks) its header.
func openJournal(path string) (*checkpoint.Writer, error) {
	w, err := checkpoint.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if err := w.Begin(journalHeader()); err != nil {
		w.Close()
		return nil, fmt.Errorf("registry: %w", err)
	}
	return w, nil
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

// chunkEnd is the end of the chunk that starts at corpus index i: the
// next multiple of seedSpan. Chunks aligned this way bound a check's
// transient product tree at seedSpan leaves.
func chunkEnd(i int) int { return (i/seedSpan + 1) * seedSpan }

// prefixResidues returns, for the chunk ms of keys at corpus indices m,
// m+1, ..., the product of the live keys before each one reduced mod
// that key. It builds the chunk's product tree, folds the forest over
// the first m keys mod the chunk's product (one foldPrefix for the whole
// chunk), and pushes that residue down the tree with subprod.Prefixes,
// which multiplies in the chunk's own earlier keys. Every key of ms
// counts as live for the keys after it, so a tombstoned key may only be
// the chunk's last.
func (r *Registry) prefixResidues(ms []*big.Int, m int) ([]*big.Int, error) {
	// A check is short and bounded; the registry has no cancellation
	// surface to thread through here.
	ctx := context.Background()
	opt := subprod.Options{Workers: r.workers(), Metrics: r.cfg.Metrics}
	t, err := subprod.Build(ctx, ms, opt)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	res, err := subprod.Prefixes(ctx, t, r.foldPrefix(t.Root(), m), opt)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return res, nil
}

// checkRun recomputes the verdicts of the corpus keys [lo, hi) against
// the keys before each, a chunk at a time, and hands them to fn in
// index order. A tombstoned key is checked with its own modulus but
// multiplies later keys as 1 (leaf), so it ends its chunk.
func (r *Registry) checkRun(lo, hi int, fn func(Verdict) error) error {
	for lo < hi {
		end := min(chunkEnd(lo), hi)
		for k := lo; k < end-1; k++ {
			if r.removed[k] {
				end = k + 1
				break
			}
		}
		res, err := r.prefixResidues(r.corpus[lo:end], lo)
		if err != nil {
			return err
		}
		for k, n := range r.corpus[lo:end] {
			if err := fn(r.check(n, lo+k, res[k])); err != nil {
				return err
			}
		}
		lo = end
	}
	return nil
}

// check turns the prefix residue of modulus n, the product of the live
// keys among the first m reduced mod n, into n's verdict against them:
// one GCD and, only on a hit, a remainder-tree descent to the culprit
// leaves.
func (r *Registry) check(n *big.Int, m int, res *big.Int) Verdict {
	// gcd(n, 0) = n covers a residue of 0: n divides the product.
	v := Verdict{Index: m, Kind: Clean, G: new(big.Int).GCD(nil, nil, n, res)}
	if v.G.Cmp(one) == 0 {
		return v
	}
	// Hit: descend every spine root to the leaves that share content
	// with n. The roots ascend left to right and descend takes the left
	// child first, so the partners come out ascending by index.
	r.partners = r.partners[:0]
	r.rootsBuf = appendRootsOf(r.rootsBuf[:0], m)
	for _, root := range r.rootsBuf {
		r.descend(root, n)
	}
	v.Partners = append([]Partner(nil), r.partners...)
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

// workers is the pool width of checks and node rebuilds:
// Config.Workers, or GOMAXPROCS when that is 0.
func (r *Registry) workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// descend prunes subtrees coprime with n and recurses into the rest,
// appending each partner leaf to r.partners; gcd(n, subproduct mod n) =
// gcd(n, subproduct), so the pruning is exact: every reported leaf
// really shares a factor. Partner factors are copied out of the scratch
// on a hit, so nothing in a returned Verdict aliases reusable state.
func (r *Registry) descend(k nodeKey, n *big.Int) {
	if k.level == 0 {
		j := k.index
		if r.removed[j] {
			return
		}
		if g := r.gcd.GCD(nil, nil, n, r.corpus[j]); g.Cmp(one) > 0 {
			f := new(big.Int).Set(g)
			r.partners = append(r.partners, Partner{Index: j, Factor: f, Dup: r.corpus[j].Cmp(n) == 0})
		}
		return
	}
	r.quo.QuoRem(r.store.value(k), n, &r.rem)
	if r.rem.Sign() == 0 || r.gcd.GCD(nil, nil, n, &r.rem).Cmp(one) > 0 {
		r.descend(nodeKey{k.level - 1, 2 * k.index}, n)
		r.descend(nodeKey{k.level - 1, 2*k.index + 1}, n)
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

// maxKeyBits caps a submitted modulus: a longer key gets a Malformed
// verdict and is neither appended nor journaled, so one request cannot
// put an arbitrarily long modulus into every later check. 16384 bits is
// four times the largest key size the paper measures.
const maxKeyBits = 16384

// SubmitBatch submits a batch in order: each key's verdict accounts for
// every earlier key, including earlier keys of the same batch. The whole
// batch is validated before anything is written: a nil or negative
// modulus fails the call with nothing appended, journaled or counted,
// so a retry without it gets the verdicts a clean registry gives. A
// zero, even or over-long (maxKeyBits) modulus gets a Malformed
// verdict. The accepted keys are checked a chunk at a time
// (prefixResidues), chunks ending at multiples of seedSpan, and
// written, appended and journaled in order. The corpus log and journal
// are synced once per batch, so batching amortizes the two fsyncs that
// dominate small-key submission cost.
func (r *Registry) SubmitBatch(ns []*big.Int) ([]Verdict, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("registry: closed")
	}
	if r.journal == nil {
		return nil, fmt.Errorf("registry: no journal since a failed Compact; Compact again or reopen the registry")
	}
	reasons := make([]string, len(ns))
	var keys []*big.Int // copies of the accepted moduli: the caller keeps ns
	for j, n := range ns {
		if n == nil || n.Sign() < 0 {
			return nil, fmt.Errorf("registry: modulus is nil or negative")
		}
		if reasons[j] = corpus.ValidateBig(n); reasons[j] == "" && n.BitLen() > maxKeyBits {
			reasons[j] = fmt.Sprintf("longer than %d bits", maxKeyBits)
		}
		if reasons[j] == "" {
			keys = append(keys, new(big.Int).Set(n))
		}
	}
	accepted := len(keys) > 0
	out := make([]Verdict, len(ns))
	var res []*big.Int // the current chunk's residues not yet used
	for j := range ns {
		// Each key has its own span and histogram sample; the first key of
		// a chunk also carries the chunk's check, so a one-key request's
		// span holds its whole check.
		start := time.Now()
		r.submissions.Inc()
		i := len(r.corpus)
		sp := r.trace.StartSpan("submit", "index", i)
		if reasons[j] != "" {
			sp.End("verdict", Malformed.String())
			r.submitH.ObserveDuration(int64(time.Since(start)))
			out[j] = Verdict{Index: -1, Kind: Malformed, Reason: reasons[j], G: new(big.Int).SetInt64(1)}
			continue
		}
		if len(res) == 0 {
			chunk := keys[:min(chunkEnd(i)-i, len(keys))]
			var err error
			if res, err = r.prefixResidues(chunk, i); err != nil {
				return nil, err
			}
		}
		m := keys[0]
		v := r.check(m, i, res[0])
		keys, res = keys[1:], res[1:]
		if err := r.accept(m, v); err != nil {
			return nil, err
		}
		sp.End("verdict", v.Kind.String(), "partners", len(v.Partners))
		r.submitH.ObserveDuration(int64(time.Since(start)))
		out[j] = v
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

// accept appends checked key m with its verdict v at the next corpus
// index. Durability order: corpus line first (the truth), then the
// forest, then the journal record. A crash between the first and the
// last leaves a corpus entry whose verdict replay recomputes.
func (r *Registry) accept(m *big.Int, v Verdict) error {
	i := len(r.corpus)
	hexLine := m.Text(16)
	if _, err := r.corpusF.WriteString(hexLine + "\n"); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.entries = append(r.entries, hexLine)
	r.corpus = append(r.corpus, m)
	r.chainVals = append(r.chainVals, r.chain.Extend([]byte(hexLine)))
	r.appendLeaf(i)
	if err := r.journalVerdict(i, v); err != nil {
		return err
	}
	for _, p := range v.Partners {
		r.foldBroken(i, p.Index, p.Factor)
		r.emit(Finding{Index: i, Partner: p.Index, Factor: p.Factor})
	}
	return nil
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
// that are no longer forest nodes, and resolves every spine root, so a
// root that a Remove invalidated is rebuilt, with its node files, before
// the next check or a restart needs it. Returns journal lines dropped
// plus node files pruned. The journal is
// reopened whether or not the rewrite succeeded (a failed rewrite leaves
// the original file in place); if the reopen fails too, every later
// Submit and SubmitBatch fails before writing anything until a Compact
// reopens it or the registry is reopened.
func (r *Registry) Compact() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("registry: closed")
	}
	jpath := filepath.Join(r.dir, "journal.jsonl")
	var err error
	if r.journal != nil {
		err = r.journal.Close()
	}
	dropped := 0
	if err == nil {
		dropped, err = checkpoint.Compact(jpath)
	}
	var openErr error
	r.journal, openErr = openJournal(jpath)
	if err != nil {
		return 0, errors.Join(fmt.Errorf("registry: %w", err), openErr)
	}
	if openErr != nil {
		return 0, openErr
	}
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
	if err := r.closeFiles(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// closeFiles syncs and closes whichever of the logs and the journal are
// open and returns the first error.
func (r *Registry) closeFiles() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, f := range []*os.File{r.corpusF, r.removedF} {
		if f != nil {
			keep(f.Sync())
			keep(f.Close())
		}
	}
	if r.journal != nil {
		keep(r.journal.Close())
	}
	return first
}
