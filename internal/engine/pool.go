package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bulkgcd/internal/obs"
)

// This file is the scheduler every parallel engine in the repository
// runs on: the all-pairs block pool and the hybrid cell pool
// (internal/bulk), the level-wise product/remainder tree fan-outs
// (internal/subprod, internal/batchgcd), batch GCD's leaf and resolve
// passes, the registry's forest fold (internal/registry) and key
// interpretation (internal/attack).
//
// The pool is one shared cursor, the host analogue of the GPU grid in
// the paper's bulk execution, which hands the next pending block to
// whichever multiprocessor is free: each worker claims the next unit
// with one atomic add until the cursor passes n. A free worker therefore
// always takes the next unclaimed unit, so a straggler (one dense
// block, one hot cell) holds up only its own worker. No deques or
// stealing are needed because every unit is coarse (a block, a cell, a
// tree node, a primality test) and every caller merges unit outputs in
// an order-independent way.
//
// Worker indices are stable: fn is always called with worker in
// [0, workers), and a given worker index is serviced by exactly one
// goroutine, so fn may keep per-worker scratch (lane kernels, mpnat
// arenas, big.Int quotients) indexed by it without synchronization.

// PoolOptions configures one Run.
type PoolOptions struct {
	// Workers is the number of goroutines; <= 0 means GOMAXPROCS(0).
	// The pool never runs more goroutines than there are units.
	Workers int
	// Metrics, when non-nil, receives engine_worker_busy_seconds.
	Metrics *obs.Registry
}

// Run executes fn(i, worker) exactly once for every i in [0, n) on
// min(Workers, n) workers; a single worker runs inline on the caller's
// goroutine.
//
// ctx is checked before each unit, and the ctx error (if any) is
// returned once all workers have stopped, in which case some units may
// not have run. A panic in fn cancels the pool (the other workers stop
// at their next unit) and is re-raised on the caller's goroutine once
// every worker has returned, so an engine-level recover sees it exactly
// as it would from a plain loop.
func Run(ctx context.Context, n int, opt PoolOptions, fn func(i, worker int)) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i, 0)
		}
		return ctx.Err()
	}

	busy := opt.Metrics.Histogram("engine_worker_busy_seconds", obs.DurationBuckets())
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var panicOnce sync.Once
	var panicked any
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					cancel()
				}
			}()
			start := time.Now()
			for wctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				fn(i, w)
			}
			busy.ObserveDuration(int64(time.Since(start)))
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
