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
// The descent is subprod.Cofactors, shared with the hybrid engine's
// diagonal cells: it carries cofactor residues z_C = (P/C) mod C from
// the root down to the leaves, one level at a time. No node is squared,
// no residue is longer than its node, and P itself is never formed, so
// the product tree stops at the root's two children. A leaf's residue
// is (P/n_i) mod n_i outright, and the leaf pass is one GCD per modulus
// (DESIGN.md §5f.1).
//
// The engine is level-parallel: within each product-tree level the node
// multiplications are independent, as are each descent level's residues
// and the leaf GCDs, so all three fan out over a worker pool sized by
// Config.Workers. The tree shape and all scan orders are deterministic,
// so every Workers setting produces the identical Finding list;
// Workers: 1 is the provably-equivalent serial path (it runs inline on
// the caller's goroutine).
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
// configuration, with no engine knob of its own. The product tree
// (subprod.Build) and its cofactor descent (subprod.Cofactors) run on
// math/big. Workers only split independent node computations within a
// tree level, so the result is identical for every pool size; Progress
// counts tree-operation units (product multiplications, descent
// residues, leaf GCDs — the output-sensitive resolution pass over the
// handful of flagged moduli is not counted). Checkpoint/Resume are
// rejected: the tree has no resumable unit decomposition (use the pairs
// or hybrid engine when resumable progress matters).
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
	productH   *obs.Histogram // batchgcd_product_level_seconds
	remainderH *obs.Histogram // batchgcd_remainder_level_seconds
	leafH      *obs.Histogram // batchgcd_leaf_gcd_seconds
	trace      *obs.Tracer
	metrics    *obs.Registry // scheduler pools (engine_worker_busy_seconds)
}

func newTracker(total int64, cfg Config) *tracker {
	t := &tracker{total: total, progress: obs.SerializeProgress(cfg.Progress), fault: cfg.Fault, trace: cfg.Trace, metrics: cfg.Metrics}
	if reg := cfg.Metrics; reg != nil {
		t.ops = reg.Counter("batchgcd_tree_ops_total")
		t.findings = reg.Counter("batchgcd_findings_total")
		t.productH = reg.Histogram("batchgcd_product_level_seconds", obs.DurationBuckets())
		t.remainderH = reg.Histogram("batchgcd_remainder_level_seconds", obs.DurationBuckets())
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

// phase wraps one tree level (or the leaf pass): a trace span plus the
// level's duration folded into hist.
func (t *tracker) phase(name string, level, nodes int, hist *obs.Histogram, fn func() error) error {
	if t == nil {
		return fn()
	}
	sp := t.trace.StartSpan("phase", "phase", name, "level", level, "nodes", nodes)
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

// levels returns the subprod options that run one tree pass on the
// pool with the tracker's hooks: each level wrapped in a phase named
// name (trace span + level-duration histogram hist), one progress tick
// per node.
func (t *tracker) levels(name string, hist *obs.Histogram, workers int) subprod.Options {
	return subprod.Options{
		Workers: workers,
		Metrics: t.metrics,
		OnLevel: func(level, nodes int, run func() error) error {
			return t.phase(name, level, nodes, hist, run)
		},
		OnNode: t.tick,
	}
}

// buildTree constructs the levels bottom-up via the shared subproduct
// builder, up to the root's two children: the cofactor descent never
// reads the root. The multiplications within one level are independent
// and fan out over the pool, and each level is a "product" phase.
func buildTree(ctx context.Context, moduli []*big.Int, workers int, tr *tracker) (*subprod.Tree, error) {
	opt := tr.levels("product", tr.productH, workers)
	opt.SkipRoot = true
	return subprod.Build(ctx, moduli, opt)
}

// cofactors runs subprod's cofactor descent over the tree, each level a
// "remainder" phase, and returns z_i = (P/n_i) mod n_i for every leaf.
func cofactors(ctx context.Context, t *subprod.Tree, workers int, tr *tracker) ([]*big.Int, error) {
	return subprod.Cofactors(ctx, t, tr.levels("remainder", tr.remainderH, workers))
}

// SharedFactorsContext returns, for each modulus,
// g_i = gcd(n_i, (P/n_i) mod n_i): 1 when n_i shares no factor with any
// other modulus, the shared factor(s) otherwise, and n_i itself when n_i
// divides the product of the others (duplicate modulus, or all of n_i's
// primes shared). Any positive integers are accepted; only RunContext
// enforces the RSA shape. A canceled context aborts between tree
// operations and the context error is returned. Batch GCD has no
// meaningful partial result — findings only exist once the descent
// reaches the leaves — so cancellation discards the incomplete tree.
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
	zs, err := cofactors(ctx, t, workers, tr)
	if err != nil {
		return nil, err
	}

	// The descent leaves z_i = (P/n_i) mod n_i at each leaf, so the leaf
	// pass is one GCD per modulus.
	out := make([]*big.Int, len(moduli))
	if err := tr.phase("leaf", 0, len(moduli), nil, func() error {
		return engine.Run(ctx, len(moduli), engine.PoolOptions{Workers: workers, Metrics: tr.metrics}, func(i, _ int) {
			if tr.leafH != nil {
				start := time.Now()
				out[i] = new(big.Int).GCD(nil, nil, zs[i], moduli[i])
				tr.leafH.ObserveDuration(int64(time.Since(start)))
			} else {
				out[i] = new(big.Int).GCD(nil, nil, zs[i], moduli[i])
			}
			tr.tick()
		})
	}); err != nil {
		return nil, err
	}
	return out, nil
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
