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
// runs on. It has two entry points. Run takes units from one shared
// cursor: the all-pairs block pool and the hybrid cell pool
// (internal/bulk), the level-wise product tree fan-out
// (subprod.Build), batch GCD's leaf and resolve passes, the registry's
// forest fold (internal/registry) and key interpretation
// (internal/attack). RunReady takes units from a FIFO ready list that a
// finished unit feeds: the tree descents (subprod.Prefixes, Suffixes
// and Reduce), in which a node can start once its parent is done.
//
// Run's cursor is the host analogue of the GPU grid in the paper's bulk
// execution, which hands the next pending block to whichever
// multiprocessor is free: each worker claims the next unit with one
// atomic add until the cursor passes n. A free worker therefore always
// takes the next unclaimed unit, so a straggler (one dense block, one
// hot cell) holds up only its own worker. No deques or stealing are
// needed because every unit is coarse (a block, a cell, a tree node, a
// primality test) and every caller merges unit outputs in an
// order-independent way. RunReady keeps the same rule for work that is
// not known up front: a unit joins the list when the unit that releases
// it finishes, and a free worker takes the oldest ready unit, so no
// worker waits for a whole wave of units to finish.
//
// Worker indices are stable in both: fn is always called with worker in
// [0, workers), and a given worker index is serviced by exactly one
// goroutine, so fn may keep per-worker scratch (lane kernels, mpnat
// arenas, big.Int quotients) indexed by it without synchronization.

// PoolOptions configures one Run or RunReady.
type PoolOptions struct {
	// Workers is the number of goroutines; <= 0 means GOMAXPROCS(0).
	// Run never runs more goroutines than there are units.
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

// RunReady executes fn once for every root and for every unit a
// finished unit releases, on Workers workers; a single worker runs
// inline on the caller's goroutine, with no goroutines, channels or
// locks. fn(u, worker, release) may call release(v) any number of times
// while it runs, and only then; the released units join the back of one
// FIFO ready list when fn returns, so a unit always runs after the unit
// that released it, and a free worker takes the oldest ready unit. The
// run ends when no unit is ready and none is running.
//
// RunReady takes ownership of roots: the slice becomes the ready list,
// so the caller must not use it afterwards, and its spare capacity is
// room the list grows into before it reallocates. A caller that knows
// the most units ever ready at once can pass twice that capacity, and
// the list never reallocates (see fifo).
//
// The contract is Run's: worker indices are stable and exclusive, ctx is
// checked before each unit and its error returned once all workers have
// stopped (some units may then not have run), and a panic in fn stops
// the pool (the other workers stop at their next unit) and is re-raised
// on the caller's goroutine once every worker has returned.
// engine_worker_busy_seconds counts the time a worker spends in fn, not
// the time it waits for a ready unit.
func RunReady[U any](ctx context.Context, roots []U, opt PoolOptions, fn func(u U, worker int, release func(U))) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := fifo[U]{items: roots}
	if workers <= 1 || len(roots) == 0 {
		release := q.push
		for u, ok := q.pop(); ok; u, ok = q.pop() {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(u, 0, release)
		}
		return ctx.Err()
	}

	busy := opt.Metrics.Histogram("engine_worker_busy_seconds", obs.DurationBuckets())
	var (
		mu       sync.Mutex
		wake     = sync.NewCond(&mu)
		pending  = len(roots) // ready or running units
		stopped  bool
		panicked any
		wg       sync.WaitGroup
	)
	// stop ends the run for every worker; the caller holds mu.
	stop := func() {
		stopped = true
		wake.Broadcast()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var inFn time.Duration
			defer func() { busy.ObserveDuration(int64(inFn)) }()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					stop()
					mu.Unlock()
				}
			}()
			var out []U
			release := func(v U) { out = append(out, v) }
			mu.Lock()
			for {
				for !stopped && pending > 0 && q.empty() {
					wake.Wait()
				}
				if stopped || pending == 0 {
					mu.Unlock()
					return
				}
				u, _ := q.pop()
				mu.Unlock()
				if ctx.Err() != nil {
					mu.Lock()
					stop()
					mu.Unlock()
					return
				}
				start := time.Now()
				fn(u, w, release)
				inFn += time.Since(start)
				mu.Lock()
				for _, v := range out {
					q.push(v)
				}
				pending += len(out) - 1
				if pending == 0 {
					wake.Broadcast()
				}
				// This worker takes one released unit itself.
				for i := 1; i < len(out); i++ {
					wake.Signal()
				}
				clear(out)
				out = out[:0]
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}

// fifo is RunReady's ready list: a slice read from head, whose consumed
// prefix is reclaimed when a push finds it full and at least half
// consumed, so it grows only while more than half of it is ready units
// and its capacity stays within four times the most units ever ready at
// once. A list that starts with twice that capacity therefore never
// grows. A popped slot is zeroed, so the list keeps no reference to a
// unit that has left it.
type fifo[U any] struct {
	items []U
	head  int
}

func (q *fifo[U]) empty() bool { return q.head == len(q.items) }

func (q *fifo[U]) push(u U) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, u)
}

func (q *fifo[U]) pop() (u U, ok bool) {
	if q.empty() {
		return u, false
	}
	var zero U
	u, q.items[q.head] = q.items[q.head], zero
	q.head++
	return u, true
}
