package bulk

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// Factor is one non-trivial GCD found by the all-pairs computation.
type Factor struct {
	// I, J are the indices of the moduli sharing the factor, I < J.
	I, J int
	// P is gcd(n_I, n_J) > 1.
	P *mpnat.Nat
}

// BadPair is one pair whose GCD computation panicked: the panic is
// recovered, the pair quarantined here, and the run continues. I < J.
type BadPair struct {
	I, J int
	Err  string
}

// Quarantined is one input modulus excluded from a run in quarantine
// mode, with the validation reason ("zero", "even").
type Quarantined struct {
	Index  int
	Reason string
}

// Config controls an all-pairs or hybrid bulk run. The cross-engine
// surface (Workers, Progress, Metrics, Trace, Checkpoint/Resume, Fault)
// is the embedded engine.Config; this struct adds the knobs specific to
// the pairwise engines. Progress counts completed pairs at work-unit
// granularity (blocks for AllPairs, tile cells for Hybrid; the hybrid
// counts filter-skipped pairs as done — they are proven coprime).
type Config struct {
	engine.Config

	// Algorithm selects the GCD algorithm (the paper's GPU kernels use
	// Approximate; Binary and FastBinary are the baselines of Table V).
	Algorithm gcd.Algorithm

	// Early enables the early-terminate variant with threshold s/2, where
	// s is the pair's smaller modulus size. This is the mode the paper
	// recommends for RSA moduli (Section V). It misses every shared prime
	// below s/2 bits: it is exact only when every prime factor has at
	// least s/2 bits, as in balanced two-prime moduli.
	Early bool

	// GroupSize is the paper's r (threads per CUDA block, 64 there);
	// 0 means 64. It only affects work partitioning, not results.
	GroupSize int

	// Quarantine, when true, skips zero/even/nil moduli — reporting them
	// in Result.Quarantined with index and reason — instead of failing
	// the whole run. Factor indices always refer to the original slice.
	Quarantine bool

	// TileSize is the hybrid engine's tile width T: the corpus is cut
	// into tiles of T moduli, every cell of the tile grid is filtered
	// with one descent over its row tile's product tree and one GCD per
	// row modulus, and only filter hits descend to per-pair GCDs. 0 means
	// 64. Findings are identical at every value.
	TileSize int

	// Kernel is the reference override of the per-pair executor. The zero
	// value lets the executor follow the algorithm (see engine.KernelKind):
	// Approximate runs on the lane-batched lockstep kernel of
	// internal/lanes, the other algorithms on the scalar kernel.
	// engine.KernelScalar pins the scalar kernel, which only the oracle
	// tests and the paper-table experiments do. Findings are identical
	// across kernels; Result.Stats differs in iteration and memory
	// accounting because the lane kernel packs two words per limb. The
	// kernel is not part of the journal fingerprint, so a run checkpointed
	// under one kernel resumes under the other.
	Kernel engine.KernelKind

	// LaneWidth is the lane count L of the lane kernel; 0 means
	// lanes.DefaultWidth. Tests set it to force ragged lockstep batches;
	// it only affects throughput, never results.
	LaneWidth int
}

// Result reports an all-pairs bulk run.
type Result struct {
	// Factors lists every pair with gcd > 1, ordered by (I, J).
	Factors []Factor
	// Stats aggregates the per-GCD statistics over all freshly computed
	// pairs (pairs replayed from a resume journal are not re-measured).
	Stats gcd.Stats
	// Pairs is the number of GCDs accounted for, including pairs restored
	// from the resume journal and quarantined BadPairs. A complete run
	// reaches the schedule's total.
	Pairs int64
	// Total is the schedule's pair count; Pairs == Total unless Canceled.
	Total int64
	// Elapsed is the wall-clock time of the parallel computation.
	Elapsed time.Duration
	// Workers is the pool size actually used.
	Workers int
	// Canceled reports cooperative cancellation: the context was canceled
	// and Factors/Pairs cover only the blocks completed before workers
	// stopped. All completed work is checkpointed and kept.
	Canceled bool
	// ResumedPairs counts the pairs restored from Config.Resume.
	ResumedPairs int64
	// BadPairs lists quarantined pairs (panic recovery), ordered by (I, J).
	BadPairs []BadPair
	// Quarantined lists input moduli excluded in quarantine mode.
	Quarantined []Quarantined
}

// PairsPerSecond returns the aggregate GCD throughput.
func (r *Result) PairsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Pairs) / r.Elapsed.Seconds()
}

// validateSet scans the corpus into a run plan without its header.
// Valid moduli land in active by index; in quarantine mode bad ones are
// reported in bad, otherwise the first bad modulus fails the run. Fewer
// than two usable moduli fail either way.
func validateSet(moduli []*mpnat.Nat, quarantine bool) (runPlan, error) {
	p := runPlan{active: make([]int, 0, len(moduli))}
	for i, n := range moduli {
		reason := ""
		switch {
		case n == nil || n.IsZero():
			reason = "zero"
		case n.IsEven():
			reason = "even"
		}
		if reason != "" {
			if !quarantine {
				return runPlan{}, fmt.Errorf("bulk: modulus %d is %s", i, reason)
			}
			p.bad = append(p.bad, Quarantined{Index: i, Reason: reason})
			continue
		}
		if b := n.BitLen(); b > p.maxBits {
			p.maxBits = b
		}
		p.active = append(p.active, i)
	}
	if len(p.active) < 2 {
		return runPlan{}, fmt.Errorf("bulk: need at least 2 usable moduli, got %d", len(p.active))
	}
	return p, nil
}

// fingerprint hashes the run identity: engine, config knobs that change
// the unit decomposition or findings, and every input modulus (bad ones
// included — quarantine is deterministic, so the raw input is the
// canonical identity). The corpus is hashed as one length-prefixed
// "|set=<n>" list, the format existing journals were written with.
func fingerprint(engine string, cfg Config, groupSize int, moduli []*mpnat.Nat) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|early=%t|quarantine=%t|r=%d|set=%d",
		engine, cfg.Algorithm, cfg.Early, cfg.Quarantine, groupSize, len(moduli))
	for _, n := range moduli {
		if n == nil {
			fmt.Fprint(h, "|nil")
		} else {
			fmt.Fprint(h, "|", n.Hex())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPlan is the validated shape both pairwise engines share: the
// active index set (quarantine applied) and the journal header, whose
// Units and TotalPairs size the run.
type runPlan struct {
	active  []int
	maxBits int
	bad     []Quarantined
	header  checkpoint.Header
}

// allPairsPlan is an all-pairs run: the shared plan plus its block
// schedule over the active indices.
type allPairsPlan struct {
	runPlan
	sched *Schedule
}

func planAllPairs(moduli []*mpnat.Nat, cfg Config) (*allPairsPlan, error) {
	rp, err := validateSet(moduli, cfg.Quarantine)
	if err != nil {
		return nil, err
	}
	r := cfg.GroupSize
	if r == 0 {
		r = 64
	}
	if r > len(rp.active) {
		r = len(rp.active)
	}
	sched, err := NewSchedule(len(rp.active), r)
	if err != nil {
		return nil, err
	}
	rp.header = checkpoint.Header{
		V:           checkpoint.Version,
		Engine:      "allpairs",
		Fingerprint: fingerprint("allpairs", cfg, r, moduli),
		Units:       len(sched.Blocks()),
		TotalPairs:  sched.TotalPairs(),
	}
	return &allPairsPlan{runPlan: rp, sched: sched}, nil
}

// JournalHeader returns the checkpoint header an AllPairs run over these
// inputs writes, letting callers decide whether an existing journal can
// be resumed before starting the run.
func JournalHeader(moduli []*mpnat.Nat, cfg Config) (checkpoint.Header, error) {
	plan, err := planAllPairs(moduli, cfg)
	if err != nil {
		return checkpoint.Header{}, err
	}
	return plan.header, nil
}

// blockOut accumulates one work unit's results; the unit is journaled
// only once all of these are final, which is what makes a journal record
// equivalent to having computed the block.
type blockOut struct {
	factors []Factor
	bad     []BadPair
	stats   gcd.Stats
	pairs   int64
	// busy accumulates the worker's in-block wall time (compute plus
	// journal appends), feeding the utilization gauge.
	busy time.Duration
}

// record converts a completed unit to its journal form.
func (b *blockOut) record(unit int) checkpoint.Record {
	rec := checkpoint.Record{Unit: unit, Pairs: b.pairs}
	for _, f := range b.factors {
		rec.Factors = append(rec.Factors, checkpoint.Factor{I: f.I, J: f.J, P: f.P.Hex()})
	}
	for _, bp := range b.bad {
		rec.Bad = append(rec.Bad, checkpoint.BadPair{I: bp.I, J: bp.J, Err: bp.Err})
	}
	return rec
}

// pairRunner computes single pairs with panic quarantine. One per worker;
// the scratch is rebuilt after a recovered panic because the kernel may
// have been interrupted mid-update. When the run executes on the lane
// kernel, lanes is non-nil and pairs queue up for lockstep execution
// instead of running inline (see lanes.go).
type pairRunner struct {
	scratch *gcd.Scratch
	filter  cellFilter // the hybrid row filter's retained state
	lanes   *laneBatcher
	maxBits int
	cfg     *Config
	moduli  []*mpnat.Nat
	seq     *atomic.Int64
	metrics *runMetrics
}

// newPairRunner builds one worker's runner. This is the one place the
// executor is chosen: the algorithm decides it, so every caller — the
// facade, rsafactor, the experiments — gets the lane kernel for
// Approximate, the one algorithm it implements, without passing
// anything.
func newPairRunner(cfg *Config, maxBits int, moduli []*mpnat.Nat, seq *atomic.Int64, metrics *runMetrics) pairRunner {
	pr := pairRunner{
		scratch: gcd.NewScratch(maxBits),
		maxBits: maxBits,
		cfg:     cfg,
		moduli:  moduli,
		seq:     seq,
		metrics: metrics,
	}
	if cfg.Algorithm == gcd.Approximate && cfg.Kernel != engine.KernelScalar {
		pr.lanes = newLaneBatcher(cfg.LaneWidth, maxBits, newLanesMetrics(cfg.Metrics))
	}
	return pr
}

// quarantine records a recovered per-pair panic: the pair is reported as
// bad (and accounted, keeping pair totals exact) and the scalar scratch
// is rebuilt because the kernel may have been interrupted mid-update.
func (p *pairRunner) quarantine(a, b int, r any, out *blockOut) {
	out.bad = append(out.bad, BadPair{I: a, J: b, Err: fmt.Sprint(r)})
	out.pairs++
	p.scratch = gcd.NewScratch(p.maxBits)
	p.cfg.Trace.Event("bad_pair", "i", a, "j", b, "err", fmt.Sprint(r))
}

func (p *pairRunner) run(a, b int, out *blockOut) {
	defer func() {
		if r := recover(); r != nil {
			p.quarantine(a, b, r, out)
		}
	}()
	if h := p.cfg.Fault; h != nil {
		h.OnPair(p.seq.Add(1)-1, a, b)
	}
	p.computePair(a, b, out)
}

// computePair runs the scalar kernel on one pair. It carries no fault
// hook and no recover: run wraps it for the inline path, and the lane
// batcher's fallback wraps it separately (the hook already fired at
// enqueue there, and must not fire twice).
func (p *pairRunner) computePair(a, b int, out *blockOut) {
	x, y := p.moduli[a], p.moduli[b]
	opt := gcd.Options{}
	if p.cfg.Early {
		opt.EarlyBits = earlyBitsFor(x, y)
	}
	g, st := p.scratch.Compute(p.cfg.Algorithm, x, y, opt)
	p.metrics.observePair(&st)
	out.stats.Add(&st)
	out.pairs++
	if g != nil && !g.IsOne() {
		out.factors = append(out.factors, Factor{I: a, J: b, P: g})
	}
}

// earlyBitsFor is the paper's s/2 threshold, s the smaller bit length.
func earlyBitsFor(x, y *mpnat.Nat) int {
	s := x.BitLen()
	if yb := y.BitLen(); yb < s {
		s = yb
	}
	return s / 2
}

// restoreJournal converts a verified resume state back into engine terms.
func restoreJournal(st *checkpoint.State) (factors []Factor, bad []BadPair, pairs int64, err error) {
	for _, rec := range st.Done {
		pairs += rec.Pairs
		for _, f := range rec.Factors {
			p, perr := mpnat.ParseHex(f.P)
			if perr != nil {
				return nil, nil, 0, fmt.Errorf("bulk: resume: factor (%d,%d): %w", f.I, f.J, perr)
			}
			factors = append(factors, Factor{I: f.I, J: f.J, P: p})
		}
		for _, bp := range rec.Bad {
			bad = append(bad, BadPair{I: bp.I, J: bp.J, Err: bp.Err})
		}
	}
	return factors, bad, pairs, nil
}

// AllPairs computes the GCD of every pair of moduli with the block
// decomposition of Section VI executed on a host worker pool. All moduli
// must be odd and positive (RSA moduli are) unless Quarantine is set.
func AllPairs(moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	return AllPairsContext(context.Background(), moduli, cfg)
}

// AllPairsContext is AllPairs with cooperative cancellation: when ctx is
// canceled, workers finish the block they hold (so every journaled block
// is complete), stop claiming new ones, and the partial Result comes back
// with Canceled set instead of an error.
func AllPairsContext(ctx context.Context, moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	plan, err := planAllPairs(moduli, cfg)
	if err != nil {
		return nil, err
	}
	sched := plan.sched
	blocks := sched.Blocks()
	up := &unitPool{
		cfg: &cfg, moduli: moduli, plan: &plan.runPlan,
		unit: "block", runAttrs: []any{"blocks", len(blocks)},
		run: func(pr *pairRunner, i int, blk *blockOut) {
			sched.BlockPairs(blocks[i], func(a, b int) {
				pr.pair(plan.active[a], plan.active[b], blk)
			})
			pr.flush(blk) // drain the lane batch before the unit is sealed
		},
	}
	return up.execute(ctx)
}

// merge folds a completed unit into the worker's accumulator.
func (b *blockOut) merge(blk *blockOut) {
	b.factors = append(b.factors, blk.factors...)
	b.bad = append(b.bad, blk.bad...)
	b.stats.Add(&blk.stats)
	b.pairs += blk.pairs
}

// sortFactors orders factors by (I, J) so results are deterministic
// regardless of worker interleaving.
func sortFactors(fs []Factor) {
	sort.Slice(fs, func(a, b int) bool { return less(fs[a], fs[b]) })
}

func less(a, b Factor) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

func sortBadPairs(bs []BadPair) {
	sort.Slice(bs, func(a, b int) bool {
		if bs[a].I != bs[b].I {
			return bs[a].I < bs[b].I
		}
		return bs[a].J < bs[b].J
	})
}

// Sequential computes the same all-pairs GCDs on a single goroutine with
// the scalar kernel; it is the repository's stand-in for the paper's CPU
// measurements (Table V's Xeon column) and doubles as the oracle for
// testing AllPairs.
func Sequential(moduli []*mpnat.Nat, alg gcd.Algorithm, early bool) (*Result, error) {
	cfg := Config{
		Config: engine.Config{Workers: 1}, Algorithm: alg, Early: early,
		GroupSize: len(moduli), Kernel: engine.KernelScalar,
	}
	return AllPairs(moduli, cfg)
}
