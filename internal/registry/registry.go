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
// the registry's lock touches: a check's fold resolves its pieces under
// the lock before the pool reduces them, and a hit's descent to its
// partner leaves runs serially under it.
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
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// Config controls an open registry.
type Config struct {
	// Workers sizes the worker pool of a check's forest fold, chunk tree
	// and prefix descent and of node rebuilds (0 = GOMAXPROCS). A hit's
	// forest descent runs serially under the registry lock.
	Workers int
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
	Submissions int64 // keys submitted this session, malformed ones included
	SpineMults  int64 // spine merge multiplications this session
	Replayed    int64 // verdicts recomputed during Open
	NodeLoads   int64 // node files loaded
	NodeBuilds  int64 // nodes rebuilt from their leaves
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

	closed bool

	// Retained submit-path scratch, all used under mu, so a warm submit
	// allocates arithmetic storage only for its chunk's tree and
	// residues (one key's residue for a one-key submit): one foldScratch
	// per pool worker (the descent takes turns with worker 0's, whose
	// product buffers then grow up to the largest spine root), the table
	// of powers of 2^64 mod the modulus a fold or descent folds by, the
	// fold's pieces (their keys, then their values), the descent's
	// per-node GCD and partner list, the product scratch the spine
	// merges multiply into (subprod.Mul compacts what the forest keeps),
	// and the spine-root list.
	folds     []foldScratch
	pow       powers
	pieceKeys []nodeKey
	pieces    []*big.Int
	gcd, prod big.Int
	partners  []Partner
	rootsBuf  []nodeKey

	submissions, spineMults, replayed *obs.Counter
	keysGauge                         *obs.Gauge
	submitH, foldH                    *obs.Histogram
	trace                             *obs.Tracer
}

// Open opens (or creates) the registry directory at dir, replays the
// corpus log against the journal, and recomputes any verdict the
// journal does not durably cover. After Open the in-memory state is
// byte-identical to the state an uninterrupted run would have reached.
func Open(dir string, cfg Config) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, "nodes"), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{
		dir:     dir,
		cfg:     cfg,
		removed: map[int]bool{},
		brokenG: map[int]*big.Int{},
		chain:   checkpoint.NewChain(Seed),
		trace:   cfg.Trace,
	}
	// Stats() reads the instrument values, so the registry always keeps
	// a metrics registry — a private one when the caller did not supply
	// theirs.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.submissions = reg.Counter("registry_submissions_total")
	r.spineMults = reg.Counter("registry_spine_mults_total")
	r.replayed = reg.Counter("registry_replayed_total")
	r.keysGauge = reg.Gauge("registry_keys")
	r.submitH = reg.Histogram("registry_submit_seconds", obs.DurationBuckets())
	r.foldH = reg.Histogram("registry_fold_seconds", obs.DurationBuckets())
	r.folds = make([]foldScratch, r.workers())
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
		if ok, err := st.VerifyChain(r.chainVals); err == nil {
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
	// child first, so the partners come out ascending by index. n's
	// table of powers is built here, on the hit, and only if the longest
	// root folds; after a one-key chunk's fold it is already n's.
	r.partners = r.partners[:0]
	r.rootsBuf = appendRootsOf(r.rootsBuf[:0], m)
	longest := 0
	for _, root := range r.rootsBuf {
		longest = max(longest, len(r.store.value(root).Bits()))
	}
	r.pow.prepare(n, longest)
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

// foldScratch is one fold worker's retained arithmetic: its running
// product mod n, the quotient, remainder and product that QuoRem and
// Mul write, the second buffer (alt) that fold alternates with the
// product, and the two read-only views into the value being folded. A
// hit's descent, which runs after the fold, reduces with worker 0's.
type foldScratch struct{ acc, quo, rem, prod, alt, hi, lo big.Int }

// foldIn multiplies piece p, reduced mod n, into the accumulator. Once
// the accumulator is 0 (n divided a piece or the running product) the
// product stays 0, so later pieces are skipped.
func (f *foldScratch) foldIn(p, n *big.Int, pw *powers) {
	if f.acc.Sign() == 0 {
		return
	}
	f.mod(p, n, pw)
	f.prod.Mul(&f.acc, &f.rem)
	f.quo.QuoRem(&f.prod, n, &f.acc)
}

// mod folds a value when it is at least foldRatio times as long as n,
// n counted as at least foldMinWords words; every shorter value takes
// one QuoRem, which is as fast or faster there. The fold pays a fixed
// cost per table entry and per step, while QuoRem's cost per word falls
// with n's length, down to one hardware division per word for a
// one-word n (DESIGN.md 5i, "Fold cost", has the grid).
const foldRatio, foldMinWords = 32, 8

// foldLen is the length in words from which mod folds a value mod n.
func foldLen(n *big.Int) int { return foldRatio * max(len(n.Bits()), foldMinWords) }

// mod sets f.rem to x mod n: by one QuoRem, after folding x down (fold)
// when it is at least foldLen(n) words long. pw must then hold n's
// powers up to x's length.
func (f *foldScratch) mod(x, n *big.Int, pw *powers) {
	if len(x.Bits()) >= foldLen(n) {
		x = f.fold(x, n, pw)
	}
	f.quo.QuoRem(x, n, &f.rem)
}

// fold returns a value congruent to x mod n and at most 2w+1 words
// long, w being n's words, from n's powers pw. While x is longer, it
// splits at k = w·2^i words, the largest table size below its length:
// x = hi·2^(64k) + lo ≡ hi·c_i + lo (mod n), and since c_i < n <
// 2^(64k) each step strictly lowers the value and about halves its
// length. Where x has k+1 words (hi is one word) the sum is below
// 2^(64k) + 2^(64(w+1)) ≤ 2^(64k+1), as k ≥ 2w, so at most three steps
// leave that length. Every product and sum goes to the worker's own
// prod and alt buffers, in turn; hi and lo only view x, which is a
// piece other workers read or the other buffer, so x is never written.
func (f *foldScratch) fold(x, n *big.Int, pw *powers) *big.Int {
	w := len(n.Bits())
	bufs := [2]*big.Int{&f.prod, &f.alt}
	for j := 0; len(x.Bits()) > 2*w+1; j ^= 1 {
		xs := x.Bits()
		i := splitIndex(len(xs), w)
		k := w << i
		f.hi.SetBits(xs[k:])
		f.lo.SetBits(xs[:k])
		bufs[j].Mul(&f.hi, &pw.c[i])
		x = bufs[j].Add(bufs[j], &f.lo)
	}
	f.hi.SetBits(nil)
	f.lo.SetBits(nil)
	return x
}

// splitIndex is the i of the largest table size w·2^i below a length of
// words words (words > w).
func splitIndex(words, w int) int { return bits.Len(uint((words-1)/w)) - 1 }

// powers is the folding reduction's table for one modulus n of w words:
// c[i] = 2^(64·w·2^i) mod n, c[0] by one QuoRem of 2^(64w) and every
// later entry as the square of the one before, mod n. Its entries keep
// their storage across rebuilds. Fold workers only read it.
type powers struct {
	n       big.Int // the modulus c is for
	c       []big.Int
	sq, quo big.Int
}

// prepare builds n's table for values up to words words long (build)
// if mod folds a value that long, and otherwise leaves it alone.
func (p *powers) prepare(n *big.Int, words int) {
	if words >= foldLen(n) {
		p.build(n, words)
	}
}

// build makes p n's table for values up to words words long. It starts
// over when n is not the modulus the table was built for, and squares
// on while the table is too short, so a descent after a one-key fold
// reuses the fold's table.
func (p *powers) build(n *big.Int, words int) {
	w := len(n.Bits())
	if p.n.Cmp(n) != 0 || len(p.c) == 0 {
		p.n.Set(n)
		p.c = p.c[:0]
		p.sq.Lsh(one, uint(64*w))
		p.quo.QuoRem(&p.sq, n, p.grow())
	}
	for len(p.c) <= splitIndex(words, w) {
		last := &p.c[len(p.c)-1]
		p.sq.Mul(last, last)
		p.quo.QuoRem(&p.sq, n, p.grow())
	}
}

// grow appends one entry to the table, reusing the storage a longer
// table left there, and returns it.
func (p *powers) grow() *big.Int {
	if len(p.c) == cap(p.c) {
		p.c = slices.Grow(p.c, 1)
	}
	p.c = p.c[:len(p.c)+1]
	return &p.c[len(p.c)-1]
}

// foldPrefix returns the product of the live keys among the first m,
// reduced mod n. It cuts the forest over the first m leaves into
// pieces (cut), resolves them under the registry lock, builds n's
// powers when a piece is long enough to fold by multiplication (mod),
// and reduces the pieces on the pool, largest first: each worker
// reduces its pieces mod n into its own accumulator, and the
// accumulators are then multiplied together mod n. The workers only
// read the pieces, the table and n; the store stays with the caller.
// One worker or one piece folds inline on the caller's goroutine. The
// result is the unique value in [0, n) whatever the cut, the width and
// the reduction path. It is retained scratch, valid until the next
// call. Each call is one registry_fold_seconds sample.
func (r *Registry) foldPrefix(n *big.Int, m int) *big.Int {
	start := time.Now()
	r.pieces = r.pieces[:0]
	for _, k := range r.cut(m, foldLen(n), len(r.folds)) {
		r.pieces = append(r.pieces, r.store.value(k))
	}
	slices.SortFunc(r.pieces, func(a, b *big.Int) int { return len(b.Bits()) - len(a.Bits()) })
	if len(r.pieces) > 0 {
		r.pow.prepare(n, len(r.pieces[0].Bits()))
	}
	w := max(min(len(r.folds), len(r.pieces)), 1)
	for i := range r.folds[:w] {
		r.folds[i].acc.SetInt64(1)
	}
	// Run fails only when its context is cancelled, and this one never is.
	_ = engine.Run(context.Background(), len(r.pieces), engine.PoolOptions{Workers: w, Metrics: r.cfg.Metrics},
		func(i, worker int) { r.folds[worker].foldIn(r.pieces[i], n, &r.pow) })
	acc := &r.folds[0].acc
	for i := 1; i < w && acc.Sign() != 0; i++ {
		f := &r.folds[i]
		f.prod.Mul(acc, &f.acc)
		f.quo.QuoRem(&f.prod, n, acc)
	}
	r.foldH.ObserveDuration(int64(time.Since(start)))
	return acc
}

// cut returns the pieces a fold on the given number of workers reduces:
// the spine roots of the forest over the first m leaves, where, with
// more than one worker, any piece longer than total/(2·workers) words
// is replaced by its two children while both are already in the
// store's map (the cut never reads a file or rebuilds a node) and both
// are at least floor words long. Handing pieces of at most
// total/(2·workers) out largest first keeps the busiest worker within
// 1.5·total/workers. foldPrefix sets the floor to foldLen(n), so a
// split never turns a piece that mod folds into pieces it divides,
// which cost 1.5–3× more per word; that also keeps each piece several
// times longer than the multiplication and division at n's size that
// joining its residue to the accumulator costs. The fold of a chunk of
// k keys of at least 512 bits therefore splits only nodes of 64k keys
// or more. The result aliases retained scratch.
func (r *Registry) cut(m, floor, workers int) []nodeKey {
	r.rootsBuf = appendRootsOf(r.rootsBuf[:0], m)
	if workers <= 1 {
		return r.rootsBuf
	}
	total := 0
	for _, k := range r.rootsBuf {
		total += len(r.store.value(k).Bits())
	}
	limit := total / (2 * workers)
	r.pieceKeys = r.pieceKeys[:0]
	for _, k := range r.rootsBuf {
		r.pieceKeys = r.appendPieces(r.pieceKeys, k, r.store.value(k), limit, floor)
	}
	return r.pieceKeys
}

// appendPieces appends node k, whose value is v, to out, or the pieces
// of its two children when v is longer than limit words and both
// children are resident and at least floor words long.
func (r *Registry) appendPieces(out []nodeKey, k nodeKey, v *big.Int, limit, floor int) []nodeKey {
	if k.level > 0 && len(v.Bits()) > limit {
		lk, rk := nodeKey{k.level - 1, 2 * k.index}, nodeKey{k.level - 1, 2*k.index + 1}
		lv, lok := r.store.resident(lk)
		rv, rok := r.store.resident(rk)
		if lok && rok && len(lv.Bits()) >= floor && len(rv.Bits()) >= floor {
			out = r.appendPieces(out, lk, lv, limit, floor)
			return r.appendPieces(out, rk, rv, limit, floor)
		}
	}
	return append(out, k)
}

// workers is the pool width of folds, chunk trees and node rebuilds:
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
// really shares a factor. Each node is reduced mod n as the fold reduces
// a piece (mod, with worker 0's scratch and r.pow, which check has made
// n's table when a root is long enough to fold). Partner factors are
// copied out of the scratch on a hit, so nothing in a returned Verdict
// aliases reusable state.
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
	s := &r.folds[0]
	s.mod(r.store.value(k), n, &r.pow)
	if s.rem.Sign() == 0 || r.gcd.GCD(nil, nil, n, &s.rem).Cmp(one) > 0 {
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
// dominate small-key submission cost; the syncs are timed in the batch's
// last key's span (its sync_ms attribute) and histogram sample.
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
		// span holds its whole check, and the batch's last key carries the
		// batch's syncs when the batch accepted a key.
		start := time.Now()
		r.submissions.Inc()
		i := len(r.corpus)
		sp := r.trace.StartSpan("submit", "index", i)
		var attrs []any
		if reasons[j] != "" {
			out[j] = Verdict{Index: -1, Kind: Malformed, Reason: reasons[j], G: new(big.Int).SetInt64(1)}
			attrs = []any{"verdict", Malformed.String()}
		} else {
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
			out[j] = v
			attrs = []any{"verdict", v.Kind.String(), "partners", len(v.Partners)}
		}
		if accepted && j == len(ns)-1 {
			syncStart := time.Now()
			if err := r.corpusF.Sync(); err != nil {
				return nil, fmt.Errorf("registry: %w", err)
			}
			if err := r.journal.Sync(); err != nil {
				return nil, fmt.Errorf("registry: %w", err)
			}
			r.keysGauge.Set(float64(len(r.corpus)))
			attrs = append(attrs, "sync_ms", float64(time.Since(syncStart).Nanoseconds())/1e6)
		}
		sp.End(attrs...)
		r.submitH.ObserveDuration(int64(time.Since(start)))
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
	}
	return nil
}

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
		SpineMults:  r.spineMults.Value(),
		Replayed:    r.replayed.Value(),
		NodeLoads:   r.store.loads.Value(),
		NodeBuilds:  r.store.builds.Value(),
	}
}

// Close syncs and closes the logs and the journal. The registry is
// unusable afterwards; reopen with Open.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
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
