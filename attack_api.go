package bulkgcd

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"time"

	"bulkgcd/internal/attack"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// Engine selects the attack engine. The zero value is EnginePairs, the
// paper's all-pairs computation.
type Engine int

const (
	// EnginePairs is the paper's all-pairs GCD computation: every pair
	// (i, j) gets one GCD with the configured Algorithm. It supports
	// every feature: checkpointing, quarantine, per-pair statistics.
	EnginePairs Engine = iota
	// EngineBatch is the Bernstein product/remainder-tree batch GCD.
	// Asymptotically fastest, but Algorithm and early termination do not
	// apply and checkpointing is not supported.
	EngineBatch
	// EngineHybrid is the tiled product-filter engine: one filter GCD
	// against a cached tile subproduct proves most rows coprime, and only
	// rows that survive the filter descend to per-pair GCDs. Findings are
	// byte-identical to EnginePairs at every tile size.
	EngineHybrid
)

// Engines lists every engine.
var Engines = []Engine{EnginePairs, EngineBatch, EngineHybrid}

// kind maps the public enum onto the internal engine registry.
func (e Engine) kind() (engine.Kind, error) {
	switch e {
	case EnginePairs:
		return engine.Pairs, nil
	case EngineBatch:
		return engine.Batch, nil
	case EngineHybrid:
		return engine.Hybrid, nil
	}
	return 0, fmt.Errorf("bulkgcd: unknown engine %d", int(e))
}

// String returns the engine name: "pairs", "batch" or "hybrid".
func (e Engine) String() string {
	k, err := e.kind()
	if err != nil {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return k.String()
}

// ParseEngine parses an engine name as accepted by the -engine flags of
// the cmd/ tools: "pairs", "batch" or "hybrid". Matching is
// case-insensitive.
func ParseEngine(s string) (Engine, error) {
	k, err := engine.ParseKind(s)
	if err != nil {
		return 0, fmt.Errorf("bulkgcd: unknown engine %q (want pairs, batch or hybrid)", s)
	}
	switch k {
	case engine.Batch:
		return EngineBatch, nil
	case engine.Hybrid:
		return EngineHybrid, nil
	default:
		return EnginePairs, nil
	}
}

// Kernel names a per-pair GCD executor.
//
// Deprecated: the executor follows the algorithm — Approximate runs on
// the lane-batched lockstep kernel, the other algorithms on the scalar
// kernel — so there is nothing to choose. Kernel remains only for
// [WithKernel].
type Kernel int

const (
	// KernelScalar pins the scalar reference kernel, one GCD at a time.
	//
	// Deprecated: see [Kernel].
	KernelScalar Kernel = iota
	// KernelLanes is the default executor.
	//
	// Deprecated: see [Kernel].
	KernelLanes
)

// Attack is a configured weak-RSA-key attack. Build one with New and
// the With... options, then call Run; the zero configuration (plain
// New()) is the recommended default: all-pairs engine, Approximate
// Euclidean with early termination, e = 65537, one worker per CPU. The
// per-pair executor follows the algorithm: Approximate runs on the
// lane-batched lockstep kernel, the other four algorithms on the scalar
// kernel, with identical findings.
//
// An Attack is immutable after New and safe for concurrent Runs, except
// when WithCheckpoint, WithMetrics or WithTrace are set (concurrent runs
// would interleave on the shared file or writer).
type Attack struct {
	engine      Engine
	algorithm   Algorithm
	kernel      engine.KernelKind
	noEarly     bool
	workers     int
	exponent    uint64
	groupSize   int
	tileSize    int
	quarantine  bool
	progress    func(done, total int64)
	metricsW    io.Writer
	traceW      io.Writer
	journalPath string
}

// Option configures an Attack. Options are applied in order by New;
// later options win.
type Option func(*Attack)

// WithEngine selects the attack engine (default EnginePairs).
func WithEngine(e Engine) Option { return func(a *Attack) { a.engine = e } }

// WithAlgorithm selects the GCD algorithm for the pairs and hybrid
// engines (default Approximate). EngineBatch ignores it.
func WithAlgorithm(alg Algorithm) Option { return func(a *Attack) { a.algorithm = alg } }

// WithKernel(KernelScalar) pins the scalar reference kernel for timing
// comparisons; KernelLanes is the default. Findings are identical
// either way.
//
// Deprecated: the executor follows the algorithm; see [Kernel].
func WithKernel(k Kernel) Option {
	return func(a *Attack) {
		a.kernel = engine.KernelLanes
		if k == KernelScalar {
			a.kernel = engine.KernelScalar
		}
	}
}

// WithoutEarlyTermination disables the s/2 early-termination shortcut
// of the pairs and hybrid engines (batch GCD has none). With it, a
// pair's GCD stops, and the pair counts as coprime, once the smaller
// operand drops below s/2 bits, s the smaller modulus size. So a shared
// prime below s/2 bits is missed: early termination is exact only for
// moduli whose prime factors all have at least s/2 bits, such as
// balanced two-prime RSA moduli. Turn it off to find shared primes in
// unbalanced or multi-prime moduli.
func WithoutEarlyTermination() Option { return func(a *Attack) { a.noEarly = true } }

// WithWorkers sets the worker-pool size (default: GOMAXPROCS).
func WithWorkers(n int) Option { return func(a *Attack) { a.workers = n } }

// WithExponent sets the RSA public exponent used for private-key
// recovery (default 65537).
func WithExponent(e uint64) Option { return func(a *Attack) { a.exponent = e } }

// WithGroupSize sets the pairs engine's scheduling group size, the
// paper's r parameter (default 64, capped at the corpus size). Findings
// are identical at every value.
func WithGroupSize(r int) Option { return func(a *Attack) { a.groupSize = r } }

// WithTileSize sets the hybrid engine's tile width T (default 64).
// Findings are identical at every value; only the filter's selectivity
// and the size of each cell's product tree change.
func WithTileSize(t int) Option { return func(a *Attack) { a.tileSize = t } }

// WithQuarantine makes the pairs and hybrid engines skip zero or even
// moduli and report them in Report.Quarantined instead of failing the
// run. EngineBatch rejects it (the product tree cannot excise inputs).
func WithQuarantine() Option { return func(a *Attack) { a.quarantine = true } }

// WithProgress installs a progress callback receiving completed/total
// counts: pairs for the pairs and hybrid engines (the hybrid counts
// filter-skipped pairs as done — they are proven coprime), tree
// operations for batch GCD.
func WithProgress(fn func(done, total int64)) Option { return func(a *Attack) { a.progress = fn } }

// WithMetrics writes the run's metrics to w in Prometheus text
// exposition format after the run completes. The counters and
// histograms cover the engine internals: per-pair GCDs, hybrid filter
// hits and skips, column tile products built and shared, checkpoint
// activity.
func WithMetrics(w io.Writer) Option { return func(a *Attack) { a.metricsW = w } }

// WithTrace streams structured run events (JSON Lines, one object per
// line) to w as the run executes: run/block spans, quarantine and
// panic-recovery events.
func WithTrace(w io.Writer) Option { return func(a *Attack) { a.traceW = w } }

// WithCheckpoint journals run progress to the file at path so an
// interrupted run can resume. If the file already holds a journal that
// matches this exact run (same corpus, engine and configuration), the
// run resumes after the recorded work units and appends; a missing,
// stale or foreign journal is replaced and the run starts over.
// Supported by EnginePairs and EngineHybrid; EngineBatch rejects it.
func WithCheckpoint(path string) Option { return func(a *Attack) { a.journalPath = path } }

// New builds an Attack from the options. New never fails;
// configuration errors (an unknown engine or algorithm, an option the
// selected engine does not support) surface from Run.
func New(opts ...Option) *Attack {
	a := &Attack{
		engine:    EnginePairs,
		algorithm: Approximate,
		exponent:  rsakey.DefaultExponent,
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// BadPair is one pair computation quarantined after a worker panic; the
// run completed without it.
type BadPair struct {
	// I, J are the corpus indices of the pair.
	I, J int
	// Err is the recovered panic message.
	Err string
}

// QuarantinedModulus is one input modulus excluded from a run under
// WithQuarantine, with the validation reason ("zero", "even").
type QuarantinedModulus struct {
	Index  int
	Reason string
}

// Report is the outcome of an Attack run.
type Report struct {
	// Broken lists factored keys ordered by index (one entry per
	// modulus, even when several pairs reveal it).
	Broken []BrokenKey
	// Duplicates lists index pairs of identical moduli: compromised, but
	// not factorable by the GCD attack.
	Duplicates [][2]int
	// Engine is the engine that ran.
	Engine Engine
	// Pairs is the number of pairs accounted for, including pairs
	// restored from a resumed journal and pairs the hybrid filter proved
	// coprime. A complete pairs/hybrid run has Pairs == TotalPairs; batch
	// GCD reports zero (it has no per-pair accounting).
	Pairs int64
	// TotalPairs is m(m-1)/2 over the active moduli (zero for batch GCD).
	TotalPairs int64
	// ResumedPairs counts pairs replayed from the checkpoint journal.
	ResumedPairs int64
	// Stats aggregates the statistics of the individually computed GCDs.
	// The hybrid engine's filter GCDs are excluded — Stats counts only
	// the full per-pair descents, so comparing it across engines shows
	// the filter's savings directly. Approximate runs on the lane
	// kernel, which packs two 32-bit words per 64-bit limb: Iterations
	// counts its quotient steps on 64-bit limbs, and MemOps counts
	// 32-bit-word equivalents of its column sweeps, one sweep per batch
	// of head-composed steps — so both differ from the paper's d = 32
	// scalar accounting, which the other four algorithms report.
	Stats Stats
	// Elapsed is the wall-clock time of the engine run.
	Elapsed time.Duration
	// Workers is the pool size actually used.
	Workers int
	// Canceled reports that the context was canceled mid-run: the
	// findings cover only the completed work units.
	Canceled bool
	// BadPairs lists pair computations quarantined after worker panics.
	BadPairs []BadPair
	// Quarantined lists input moduli excluded under WithQuarantine.
	Quarantined []QuarantinedModulus
}

// Run executes the attack over the corpus of RSA moduli. All moduli
// must be positive; zero or even moduli fail the run unless
// WithQuarantine is set. On context cancellation the run stops at the
// next work-unit boundary and returns the findings completed so far
// with Report.Canceled set, not an error.
func (a *Attack) Run(ctx context.Context, moduli []*big.Int) (*Report, error) {
	kind, err := a.engine.kind()
	if err != nil {
		return nil, err
	}
	ialg, err := a.algorithm.internalAlg()
	if err != nil {
		return nil, err
	}
	ms := make([]*mpnat.Nat, len(moduli))
	for i, m := range moduli {
		if m == nil || m.Sign() < 0 {
			return nil, fmt.Errorf("bulkgcd: modulus %d is not positive", i)
		}
		if !a.quarantine {
			if m.Sign() == 0 {
				return nil, fmt.Errorf("bulkgcd: modulus %d is not positive", i)
			}
			if m.Bit(0) == 0 {
				return nil, fmt.Errorf("bulkgcd: modulus %d is even (not an RSA modulus)", i)
			}
		}
		ms[i] = mpnat.FromBig(m)
	}

	opt := attack.Options{
		Config: engine.Config{
			Workers:  a.workers,
			Progress: a.progress,
		},
		Algorithm:  ialg,
		Early:      !a.noEarly,
		GroupSize:  a.groupSize,
		Exponent:   a.exponent,
		Engine:     kind,
		Quarantine: a.quarantine,
		TileSize:   a.tileSize,
		Kernel:     a.kernel,
	}
	if a.metricsW != nil {
		opt.Metrics = obs.NewRegistry()
	}
	if a.traceW != nil {
		opt.Trace = obs.NewTracer(a.traceW)
	}
	if a.journalPath != "" {
		hdr, err := attack.JournalHeader(ms, opt)
		if err != nil {
			return nil, err
		}
		if st, lerr := checkpoint.Load(a.journalPath); lerr == nil && st.Verify(hdr) == nil {
			w, err := checkpoint.OpenAppend(a.journalPath)
			if err != nil {
				return nil, err
			}
			opt.Resume = st
			opt.Checkpoint = w
		} else {
			w, err := checkpoint.Create(a.journalPath)
			if err != nil {
				return nil, err
			}
			opt.Checkpoint = w
		}
		defer opt.Checkpoint.Close()
	}

	rep, err := attack.RunContext(ctx, ms, opt)
	if err != nil {
		return nil, err
	}
	out := &Report{
		Duplicates:   rep.Duplicates,
		Engine:       a.engine,
		Pairs:        rep.Bulk.Pairs,
		TotalPairs:   rep.Bulk.Total,
		ResumedPairs: rep.Bulk.ResumedPairs,
		Elapsed:      rep.Bulk.Elapsed,
		Workers:      rep.Bulk.Workers,
		Canceled:     rep.Canceled,
		Stats: Stats{
			Iterations:  rep.Bulk.Stats.Iterations,
			BetaNonZero: rep.Bulk.Stats.BetaNonZero,
			MemOps:      rep.Bulk.Stats.MemOps,
		},
	}
	for _, bk := range rep.Broken {
		out.Broken = append(out.Broken, BrokenKey{
			Index: bk.Index, N: bk.N, P: bk.P, Q: bk.Q, D: bk.D, FoundWith: bk.FoundWith,
		})
	}
	for _, bp := range rep.BadPairs {
		out.BadPairs = append(out.BadPairs, BadPair{I: bp.I, J: bp.J, Err: bp.Err})
	}
	for _, q := range rep.Quarantined {
		out.Quarantined = append(out.Quarantined, QuarantinedModulus{Index: q.Index, Reason: q.Reason})
	}
	if a.metricsW != nil {
		if err := opt.Metrics.Snapshot().WritePrometheus(a.metricsW); err != nil {
			return out, fmt.Errorf("bulkgcd: writing metrics: %w", err)
		}
	}
	return out, nil
}
