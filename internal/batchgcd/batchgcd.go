// Package batchgcd implements Bernstein's batch GCD (a product tree and
// a descent back down it), the standard alternative to the paper's
// all-pairs approach for finding shared primes among many RSA moduli
// (the algorithm behind the fastgcd tool used by Heninger et al.).
//
// The paper's contribution is a better *pairwise* GCD kernel; batch GCD
// is the asymptotically faster but memory-hungry competitor, so this
// package serves as the known-baseline comparison: cmd/rsafactor
// -engine=batch runs it, and the crossover experiment in package
// experiments compares the two as corpus size grows.
//
// For m moduli of b bits, batch GCD computes
//
//	g_i = gcd(n_i, (P / n_i) mod n_i)   where P = prod_j n_j
//
// for all i in O(M(m*b) * log m) time, where M is the multiplication
// cost. It is implemented over math/big: the baseline's whole advantage
// is asymptotically fast multiplication, which is orthogonal to the
// paper's word-level contribution (see DESIGN.md, substitutions).
//
// It gets there in three passes over a product tree that stops at the
// root's two children (DESIGN.md §5f.1), on subprod's Prefixes, Reduce
// and Suffixes descents:
//
//  1. Prefix pass: Prefixes(tree, 1) and one GCD per modulus give
//     g'_i = gcd(n_i, (n_0...n_{i-1}) mod n_i), which exceeds 1 exactly
//     when n_i shares a prime with an earlier modulus (the hits S).
//  2. Candidates: C is S plus every modulus that shares a prime with
//     H = prod_{i in S} g'_i (one Reduce(tree, H) and one GCD per
//     modulus). C holds every modulus that shares a prime, and no
//     other. When 4|S| > m, C is every modulus instead.
//  3. Suffix pass over C alone: Suffixes(1) over a product tree of C's
//     moduli (the main tree when C is every modulus) gives s_j, the
//     product of C's later moduli mod n_j, and g_j = gcd(n_j,
//     z_j*s_j mod n_j) with z_j the prefix residue. Every modulus
//     outside C gets g_i = 1.
//
// The moduli outside C are coprime to every n_j in C, so leaving them
// out of s_j changes no GCD, and g_j equals gcd(n_j, (P/n_j) mod n_j)
// exactly. Shared primes are rare in collected corpora, so passes 2
// and 3 cost little next to the prefix pass, which pays one division
// at a left child where a full cofactor descent pays two and a product
// at every node.
//
// The engine is parallel over a worker pool sized by Config.Workers:
// within each product-tree level the node multiplications are
// independent, a descent's node starts as soon as its parent's residue
// is done (subprod on engine.RunReady), and the leaf GCDs are
// independent. The tree shape and every residue are deterministic, so
// every Workers setting produces the identical Finding list; Workers: 1
// is the provably-equivalent serial path (it runs inline on the
// caller's goroutine).
package batchgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync/atomic"
	"time"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/subprod"
)

// one is the shared constant 1.
var one = big.NewInt(1)

// Config controls a batch-GCD run: the shared cross-engine
// configuration, with no engine knob of its own. The product trees
// (subprod.Build) and their descents (subprod.Prefixes, Suffixes and
// Reduce) run on math/big. Workers only split independent node
// computations (a product level's multiplications, the residues of
// nodes whose parents are done), so the result is identical for every
// pool size; Progress counts tree-operation units (product
// multiplications, prefix residues, leaf GCDs — the output-sensitive
// candidate and suffix passes and the resolution pass over the handful
// of flagged moduli are not counted). Checkpoint/Resume are rejected:
// the tree has no resumable unit decomposition (use the pairs or hybrid
// engine when resumable progress matters).
type Config struct {
	engine.Config
}

// tracker carries the shared progress and observability state of one
// run: the serialized progress stream, the obs instruments and the
// tracer. All instrument fields are nil-safe, so every path updates
// them unconditionally.
type tracker struct {
	done     atomic.Int64
	total    int64
	progress func(done, total int64)
	fault    *faultinject.Hook

	ops        *obs.Counter   // batchgcd_tree_ops_total
	findings   *obs.Counter   // batchgcd_findings_total
	productH   *obs.Histogram // batchgcd_product_pass_seconds
	remainderH *obs.Histogram // batchgcd_remainder_pass_seconds
	leafH      *obs.Histogram // batchgcd_leaf_gcd_seconds
	trace      *obs.Tracer
	metrics    *obs.Registry // scheduler pools (engine_worker_busy_seconds)
}

func newTracker(total int64, cfg Config) *tracker {
	t := &tracker{total: total, progress: obs.SerializeProgress(cfg.Progress), fault: cfg.Fault, trace: cfg.Trace, metrics: cfg.Metrics}
	if reg := cfg.Metrics; reg != nil {
		t.ops = reg.Counter("batchgcd_tree_ops_total")
		t.findings = reg.Counter("batchgcd_findings_total")
		t.productH = reg.Histogram("batchgcd_product_pass_seconds", obs.DurationBuckets())
		t.remainderH = reg.Histogram("batchgcd_remainder_pass_seconds", obs.DurationBuckets())
		t.leafH = reg.Histogram("batchgcd_leaf_gcd_seconds", obs.DurationBuckets())
	}
	return t
}

// tick records one completed unit and notifies the callback; the fault
// hook sees the operation's 0-based ordinal.
func (t *tracker) tick() {
	if t == nil {
		return
	}
	t.ops.Inc()
	if t.progress == nil && t.fault == nil {
		return
	}
	d := t.done.Add(1)
	t.fault.OnOp(d - 1)
	if t.progress != nil {
		t.progress(d, t.total)
	}
}

// phase wraps one pass over n leaves (a tree's construction, a descent,
// or a leaf pass): a trace span plus the pass's duration folded into
// hist.
func (t *tracker) phase(name string, n int, hist *obs.Histogram, fn func() error) error {
	if t == nil {
		return fn()
	}
	sp := t.trace.StartSpan("phase", "phase", name, "leaves", n)
	start := time.Now()
	err := fn()
	hist.ObserveDuration(int64(time.Since(start)))
	sp.End("err", err != nil)
	return err
}

// treeUnits counts the work units of a full run over m moduli:
// product-tree multiplications up to the root's two children (the root
// is never formed), one descent residue per node below the root
// (promoted odd nodes included), and the m leaf GCDs.
func treeUnits(m int) (mults, reductions, leaves int64) {
	for l := m; l > 1; l = (l + 1) / 2 {
		reductions += int64(l)
		if l > 2 {
			mults += int64(l / 2)
		}
	}
	return mults, reductions, int64(m)
}

func validate(moduli []*big.Int) error {
	if len(moduli) == 0 {
		return fmt.Errorf("batchgcd: empty input")
	}
	for i, n := range moduli {
		if n == nil || n.Sign() <= 0 {
			return fmt.Errorf("batchgcd: modulus %d is not positive", i)
		}
	}
	return nil
}

// rejectJournal enforces the Config contract: batch GCD has no
// resumable unit decomposition, so journaling options are an error
// rather than a silent no-op.
func rejectJournal(cfg Config) error {
	if cfg.Checkpoint != nil || cfg.Resume != nil {
		return fmt.Errorf("batchgcd: checkpointing is not supported; use the pairs or hybrid engine")
	}
	return nil
}

// validateRSA adds the RSA-shape checks of the bulk engine to the plain
// positivity validation: the attack entry points (Run and friends) reject
// zero and even moduli up front, the same contract bulk.AllPairs enforces.
func validateRSA(moduli []*big.Int) error {
	if err := validate(moduli); err != nil {
		return err
	}
	for i, n := range moduli {
		if n.Bit(0) == 0 {
			return fmt.Errorf("batchgcd: modulus %d is even (not an RSA modulus)", i)
		}
	}
	return nil
}

// options returns the subprod options that run one tree pass on the
// pool, with one progress tick per node when ticks is set.
func (t *tracker) options(workers int, ticks bool) subprod.Options {
	opt := subprod.Options{Workers: workers, Metrics: t.metrics}
	if ticks {
		opt.OnNode = t.tick
	}
	return opt
}

// build runs subprod.Build over leaves as one phase named name.
func (t *tracker) build(ctx context.Context, name string, hist *obs.Histogram, leaves []*big.Int, opt subprod.Options) (tree *subprod.Tree, err error) {
	err = t.phase(name, len(leaves), hist, func() error {
		tree, err = subprod.Build(ctx, leaves, opt)
		return err
	})
	return tree, err
}

// descent is the signature of subprod's three descents.
type descent func(context.Context, *subprod.Tree, *big.Int, subprod.Options) ([]*big.Int, error)

// descend runs one descent of x over tree as one "remainder" phase.
func (t *tracker) descend(ctx context.Context, d descent, tree *subprod.Tree, x *big.Int, opt subprod.Options) (res []*big.Int, err error) {
	err = t.phase("remainder", len(tree.Levels[0]), t.remainderH, func() error {
		res, err = d(ctx, tree, x, opt)
		return err
	})
	return res, err
}

// leaves runs fn(k, w) for every k < n on the pool (w is the worker
// index) as one "leaf" phase, with one progress tick per unit when
// ticks is set.
func (t *tracker) leaves(ctx context.Context, n, workers int, ticks bool, fn func(k, w int)) error {
	return t.phase("leaf", n, nil, func() error {
		return engine.Run(ctx, n, engine.PoolOptions{Workers: workers, Metrics: t.metrics}, func(k, w int) {
			fn(k, w)
			if ticks {
				t.tick()
			}
		})
	})
}

// buildTree constructs the levels bottom-up via the shared subproduct
// builder, up to the root's two children: the descents never read the
// root. The multiplications within one level are independent and fan
// out over the pool, and the whole build is one "product" phase.
func buildTree(ctx context.Context, moduli []*big.Int, workers int, tr *tracker) (*subprod.Tree, error) {
	opt := tr.options(workers, true)
	opt.SkipRoot = true
	return tr.build(ctx, "product", tr.productH, moduli, opt)
}

// prefixes runs the prefix descent over the tree as one "remainder"
// phase and returns z_i = (n_0...n_{i-1}) mod n_i for every leaf.
func prefixes(ctx context.Context, t *subprod.Tree, workers int, tr *tracker) ([]*big.Int, error) {
	return tr.descend(ctx, subprod.Prefixes, t, one, tr.options(workers, true))
}

// SharedFactorsContext returns, for each modulus,
// g_i = gcd(n_i, (P/n_i) mod n_i): 1 when n_i shares no factor with any
// other modulus, the shared factor(s) otherwise, and n_i itself when n_i
// divides the product of the others (duplicate modulus, or all of n_i's
// primes shared). Any positive integers are accepted; only RunContext
// enforces the RSA shape. A canceled context aborts between tree
// operations and the context error is returned. Batch GCD has no
// meaningful partial result — findings only exist once the descents
// reach the leaves — so cancellation discards the incomplete trees.
func SharedFactorsContext(ctx context.Context, moduli []*big.Int, cfg Config) ([]*big.Int, error) {
	if err := rejectJournal(cfg); err != nil {
		return nil, err
	}
	if err := validate(moduli); err != nil {
		return nil, err
	}
	workers := cfg.EffectiveWorkers()
	mults, reductions, leaves := treeUnits(len(moduli))
	tr := newTracker(mults+reductions+leaves, cfg)

	t, err := buildTree(ctx, moduli, workers, tr)
	if err != nil {
		return nil, err
	}
	zs, err := prefixes(ctx, t, workers, tr)
	if err != nil {
		return nil, err
	}
	// g'_i = gcd(n_i, z_i) exceeds 1 exactly when n_i shares a prime with
	// an earlier modulus.
	out := make([]*big.Int, len(moduli))
	if err := tr.leaves(ctx, len(moduli), workers, true, func(i, _ int) {
		if tr.leafH != nil {
			start := time.Now()
			out[i] = new(big.Int).GCD(nil, nil, zs[i], moduli[i])
			tr.leafH.ObserveDuration(int64(time.Since(start)))
		} else {
			out[i] = new(big.Int).GCD(nil, nil, zs[i], moduli[i])
		}
	}); err != nil {
		return nil, err
	}
	var hits []int
	for i, g := range out {
		if g.Cmp(one) != 0 {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return out, nil
	}
	cand, err := candidates(ctx, t, moduli, out, hits, workers, tr)
	if err != nil {
		return nil, err
	}
	if err := finish(ctx, t, moduli, zs, cand, out, workers, tr); err != nil {
		return nil, err
	}
	return out, nil
}

// candidates returns, in index order, every modulus that can share a
// prime: the hits S of the prefix pass, and every modulus that shares a
// prime with H, the product of the hits' g'_i. For a sharing pair a < b,
// b is a hit and the shared prime divides g'_b, hence H, so both are
// returned; a modulus that shares a prime with H shares it with a hit,
// so nothing else is. Past the dense guard every modulus is returned.
// The tree over the hits' g'_i and the reduction of H down the main tree
// are one "remainder" phase each, the GCDs a "leaf" phase; none is a
// progress unit.
func candidates(ctx context.Context, t *subprod.Tree, moduli, gs []*big.Int, hits []int, workers int, tr *tracker) ([]int, error) {
	m := len(moduli)
	if dense(len(hits), m) {
		all := make([]int, m)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	fs := make([]*big.Int, len(hits))
	for k, i := range hits {
		fs[k] = gs[i]
	}
	opt := tr.options(workers, false)
	ht, err := tr.build(ctx, "remainder", tr.remainderH, fs, opt)
	if err != nil {
		return nil, err
	}
	rs, err := tr.descend(ctx, subprod.Reduce, t, ht.Root(), opt)
	if err != nil {
		return nil, err
	}
	in := make([]bool, m)
	for _, i := range hits {
		in[i] = true
	}
	scratch := make([]big.Int, workers)
	if err := tr.leaves(ctx, m, workers, false, func(i, w int) {
		if !in[i] {
			in[i] = scratch[w].GCD(nil, nil, rs[i], moduli[i]).Cmp(one) != 0
		}
	}); err != nil {
		return nil, err
	}
	var cand []int
	for i, c := range in {
		if c {
			cand = append(cand, i)
		}
	}
	return cand, nil
}

// dense is the guard of candidates. With hits prefix hits among m
// moduli, 4·hits > m means about half the moduli or more share (a
// sharing pair gives one hit); there the hit reduce and a suffix
// descent over the candidates cost about as much as one over every
// modulus (DESIGN.md §5f.1 has the sweep).
func dense(hits, m int) bool { return 4*hits > m }

// finish computes g_j for every candidate j in place of its g'_j. The
// suffix descent over the candidates' product tree (the main tree t
// when every modulus is a candidate) gives s_j, the product of the later
// candidates mod n_j, so z_j*s_j is, mod n_j, the product of every other
// candidate times the earlier non-candidates. Those are coprime to n_j,
// so g_j = gcd(n_j, z_j*s_j mod n_j) = gcd(n_j, (P/n_j) mod n_j). The
// tree and its descent are one "remainder" phase each, the GCDs a
// "leaf" phase; none is a progress unit.
func finish(ctx context.Context, t *subprod.Tree, moduli, zs []*big.Int, cand []int, out []*big.Int, workers int, tr *tracker) error {
	opt := tr.options(workers, false)
	if len(cand) < len(moduli) {
		sub := make([]*big.Int, len(cand))
		for k, j := range cand {
			sub[k] = moduli[j]
		}
		opt.SkipRoot = true
		var err error
		if t, err = tr.build(ctx, "remainder", tr.remainderH, sub, opt); err != nil {
			return err
		}
	}
	ss, err := tr.descend(ctx, subprod.Suffixes, t, one, opt)
	if err != nil {
		return err
	}
	type finishScratch struct{ prod, quo, rem big.Int }
	scratch := make([]finishScratch, workers)
	return tr.leaves(ctx, len(cand), workers, false, func(k, w int) {
		j, sc := cand[k], &scratch[w]
		sc.prod.Mul(zs[j], ss[k])
		sc.quo.QuoRem(&sc.prod, moduli[j], &sc.rem)
		out[j] = new(big.Int).GCD(nil, nil, &sc.rem, moduli[j])
	})
}

// Finding is one modulus flagged by the batch run, resolved into a
// non-trivial factor where possible.
type Finding struct {
	// Index is the modulus position.
	Index int
	// Factor is a non-trivial divisor of the modulus (1 < Factor < N),
	// or the modulus itself when no pairwise GCD splits it.
	Factor *big.Int
	// DuplicateOf is the smallest index of an identical modulus, or -1.
	// It is set whether or not a proper factor was also extracted.
	DuplicateOf int
}

// RunContext executes the complete batch attack: SharedFactorsContext
// plus the resolution pass that Bernstein's method needs when g_i equals
// n_i (duplicate moduli, or a modulus both of whose primes are shared).
// Like bulk.AllPairs, it rejects zero and even moduli up front. The
// Finding list is identical for every Workers setting. On cancel the
// incomplete tree is discarded and the context error returned (there are
// no partial batch findings; use the all-pairs engine when resumable
// partial progress matters).
func RunContext(ctx context.Context, moduli []*big.Int, cfg Config) (findings []Finding, err error) {
	if err := rejectJournal(cfg); err != nil {
		return nil, err
	}
	if err := validateRSA(moduli); err != nil {
		return nil, err
	}
	runSpan := cfg.Trace.StartSpan("run",
		"engine", "batchgcd", "moduli", len(moduli), "workers", cfg.EffectiveWorkers())
	defer func() {
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("batchgcd_findings_total").Add(int64(len(findings)))
		}
		runSpan.End("findings", len(findings), "canceled", errors.Is(err, context.Canceled))
	}()
	gs, err := SharedFactorsContext(ctx, moduli, cfg)
	if err != nil {
		return nil, err
	}
	var whole []int // indices with g_i == n_i, resolved below
	for i, g := range gs {
		switch {
		case g.Cmp(one) == 0:
			// coprime with every other modulus
		case g.Cmp(moduli[i]) < 0:
			findings = append(findings, Finding{Index: i, Factor: g, DuplicateOf: -1})
		default:
			whole = append(whole, i)
		}
	}
	resolved, err := resolveWhole(ctx, moduli, whole, findings, cfg.EffectiveWorkers())
	if err != nil {
		return nil, err
	}
	findings = append(findings, resolved...)
	sort.Slice(findings, func(a, b int) bool { return findings[a].Index < findings[b].Index })
	return findings, nil
}

// resolveWhole handles the g_i == n_i cases: each flagged modulus needs
// pairwise GCDs against the other flagged moduli (which are few) to
// extract a proper factor or identify duplicates. The indices resolve
// independently against the same deterministic candidate list, chunked
// across the worker pool, so the output does not depend on Workers: the
// first proper divisor in candidate order wins and the duplicate partner
// is always the smallest matching index.
func resolveWhole(ctx context.Context, moduli []*big.Int, whole []int, proper []Finding, workers int) ([]Finding, error) {
	if len(whole) == 0 {
		return nil, nil
	}
	candidates := make([]int, 0, len(whole)+len(proper))
	candidates = append(candidates, whole...)
	for _, f := range proper {
		candidates = append(candidates, f.Index)
	}
	out := make([]Finding, len(whole))
	scratch := make([]big.Int, workers) // per-worker gcd
	err := engine.Run(ctx, len(whole), engine.PoolOptions{Workers: workers}, func(k, w int) {
		i := whole[k]
		g := &scratch[w]
		f := Finding{Index: i, DuplicateOf: -1}
		for _, j := range candidates {
			if j == i {
				continue
			}
			g.GCD(nil, nil, moduli[i], moduli[j])
			switch {
			case g.Cmp(one) == 0:
			case g.Cmp(moduli[i]) == 0 && moduli[i].Cmp(moduli[j]) == 0:
				if f.DuplicateOf < 0 || j < f.DuplicateOf {
					f.DuplicateOf = j
				}
			case g.Cmp(moduli[i]) < 0:
				if f.Factor == nil {
					f.Factor = new(big.Int).Set(g)
				}
			}
		}
		if f.Factor == nil {
			f.Factor = new(big.Int).Set(moduli[i])
		}
		out[k] = f
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
