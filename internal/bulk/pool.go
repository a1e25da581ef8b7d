package bulk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
)

// unitPool is the run skeleton the two pairwise engines — all-pairs
// blocks and hybrid cells — share around the scheduler (engine.Run):
// journal preparation and resume skips, run metrics, quarantine events
// and the run span, lazily built per-worker pairRunner arenas (worker
// indices are stable, so every arena stays pinned to one goroutine and
// the per-pair zero-alloc guarantees survive), fault-injection hooks,
// checkpoint journaling with abort-on-error, per-unit metrics and
// tracing, serialized progress, and the final Result assembly. A free
// worker always claims the next unclaimed unit, so a straggler unit (one
// dense block, one hot cell) holds up only its own worker; findings stay
// byte-identical at every pool size because each unit's output is
// accumulated per worker, then merged and sorted.
type unitPool struct {
	cfg    *Config
	moduli []*mpnat.Nat
	plan   *runPlan
	// unit names the per-unit child span and its index attribute
	// ("block", "cell").
	unit string
	// runAttrs are the engine-specific run-span attributes, emitted
	// between the worker count and total_pairs.
	runAttrs []any
	// spanAttrs, when non-nil, supplies extra attributes for unit i's span.
	spanAttrs func(i int) []any
	// run computes unit i into blk using the worker's pairRunner and
	// must leave the runner's lane batch drained (pr.flush).
	run func(pr *pairRunner, i int, blk *blockOut)
	// observeUnit, when non-nil, sees each completed unit's duration
	// (the hybrid engine's cell histogram).
	observeUnit func(d time.Duration)
}

// execute runs every unit of the plan and assembles the Result. A
// checkpoint append error cancels the pool and is returned; ctx
// cancellation is not an error (the partial Result comes back with
// Canceled set).
func (up *unitPool) execute(ctx context.Context) (*Result, error) {
	cfg, plan := up.cfg, up.plan
	n, total := plan.header.Units, plan.header.TotalPairs
	resumedFactors, resumedBad, resumedPairs, resumed, err := prepareJournal(plan.header, cfg)
	if err != nil {
		return nil, err
	}
	// engine.Run starts no more goroutines than there are units, and
	// Result.Workers reports the pool size actually used.
	workers := min(cfg.EffectiveWorkers(), n)
	metrics := newRunMetrics(cfg.Metrics, cfg.Algorithm)
	metrics.begin(workers, len(plan.bad), resumedPairs)
	for _, q := range plan.bad {
		cfg.Trace.Event("quarantine", "index", q.Index, "reason", q.Reason)
	}
	attrs := []any{"engine", plan.header.Engine, "algorithm", cfg.Algorithm.String(), "early", cfg.Early,
		"moduli", len(up.moduli), "workers", workers}
	attrs = append(append(attrs, up.runAttrs...), "total_pairs", total)
	runSpan := cfg.Trace.StartSpan("run", attrs...)

	start := time.Now()
	progress := obs.SerializeProgress(cfg.Progress)
	var done atomic.Int64
	done.Store(resumedPairs)
	if progress != nil && resumedPairs > 0 {
		progress(resumedPairs, total)
	}
	var pairSeq atomic.Int64
	var ckptOnce sync.Once
	var ckptErr error

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]blockOut, workers)
	runners := make([]*pairRunner, workers)
	engine.Run(runCtx, n, engine.PoolOptions{Workers: workers, Metrics: cfg.Metrics}, func(i, w int) {
		if _, ok := resumed[i]; ok {
			return // completed by the interrupted run
		}
		cfg.Fault.OnBlock(i)
		pr := runners[w]
		if pr == nil {
			r := newPairRunner(cfg, plan.maxBits, up.moduli, &pairSeq, metrics)
			pr = &r
			runners[w] = pr
		}
		unitStart := time.Now()
		spanAttrs := []any{up.unit, i, "worker", w}
		if up.spanAttrs != nil {
			spanAttrs = append(spanAttrs, up.spanAttrs(i)...)
		}
		span := runSpan.StartChild(up.unit, spanAttrs...)
		var blk blockOut
		up.run(pr, i, &blk)
		unitDur := time.Since(unitStart)
		if cfg.Checkpoint != nil {
			ckStart := time.Now()
			err := cfg.Checkpoint.Append(blk.record(i))
			metrics.observeCheckpoint(time.Since(ckStart))
			if err != nil {
				ckptOnce.Do(func() { ckptErr = err; cancel() })
				return
			}
		}
		metrics.observeBlock(&blk, unitDur)
		if up.observeUnit != nil {
			up.observeUnit(unitDur)
		}
		span.End("pairs", blk.pairs, "factors", len(blk.factors), "bad_pairs", len(blk.bad))
		out := &outs[w]
		out.merge(&blk)
		out.busy += time.Since(unitStart)
		if progress != nil {
			progress(done.Add(blk.pairs), total)
		}
	})
	if ckptErr != nil {
		return nil, fmt.Errorf("bulk: checkpoint: %w", ckptErr)
	}

	res := &Result{
		Elapsed:      time.Since(start),
		Workers:      workers,
		Canceled:     ctx.Err() != nil,
		ResumedPairs: resumedPairs,
		Quarantined:  plan.bad,
		Pairs:        resumedPairs,
		Total:        total,
		Factors:      resumedFactors,
		BadPairs:     resumedBad,
	}
	var busy time.Duration
	for i := range outs {
		res.Pairs += outs[i].pairs
		res.Stats.Add(&outs[i].stats)
		res.Factors = append(res.Factors, outs[i].factors...)
		res.BadPairs = append(res.BadPairs, outs[i].bad...)
		busy += outs[i].busy
	}
	sortFactors(res.Factors)
	sortBadPairs(res.BadPairs)
	metrics.finish(res, busy)
	runSpan.End("pairs", res.Pairs, "factors", len(res.Factors),
		"bad_pairs", len(res.BadPairs), "canceled", res.Canceled)
	if !res.Canceled && res.Pairs != total {
		return nil, fmt.Errorf("bulk: internal error: covered %d pairs, want %d", res.Pairs, total)
	}
	return res, nil
}

// prepareJournal verifies and restores cfg.Resume, and writes (or
// verifies) the header on cfg.Checkpoint.
func prepareJournal(hdr checkpoint.Header, cfg *Config) (factors []Factor, bad []BadPair, pairs int64, resumed map[int]checkpoint.Record, err error) {
	resumed = map[int]checkpoint.Record{}
	if cfg.Resume != nil {
		if err := cfg.Resume.Verify(hdr); err != nil {
			return nil, nil, 0, nil, fmt.Errorf("bulk: resume: %w", err)
		}
		factors, bad, pairs, err = restoreJournal(cfg.Resume)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		for u, rec := range cfg.Resume.Done {
			if rec.BadCell != "" {
				continue // fleet-quarantined unit: recompute it locally
			}
			resumed[u] = rec
		}
	}
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Begin(hdr); err != nil {
			return nil, nil, 0, nil, err
		}
	}
	return factors, bad, pairs, resumed, nil
}
