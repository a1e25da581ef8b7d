package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bulkgcd/internal/obs"
)

// This file is the shared work-stealing scheduler every parallel engine
// in the repository runs on: the all-pairs block pool and the hybrid
// cell pool (internal/bulk), the level-wise product/remainder tree
// fan-outs (internal/subprod, internal/batchgcd), and the registry's
// forest descent (internal/registry).
//
// The design is a chunked range-splitting deque. Each worker owns one
// atomic 64-bit word holding a half-open index range packed as
// lo<<32|hi; the n work units are statically partitioned across the
// words up front. An owner claims Grain units from the front of its own
// range with a single CAS; a thief scans the other workers' words and
// carves off the upper half of the largest-looking victim range with one
// CAS, storing the stolen range into its own (empty) word so other
// thieves can re-steal from it. There are no locks, no channels and no
// allocation per unit: the only coordination is one CAS per Grain units
// plus one CAS per steal, so the zero-alloc guarantees of the per-worker
// arenas threaded through fn's worker index survive unchanged.
//
// Worker indices are stable: fn is always called with worker in
// [0, workers), and a given worker index is serviced by exactly one
// goroutine, so fn may keep per-worker scratch (lane kernels, mpnat
// arenas, big.Int quotients) indexed by it without synchronization.
//
// Termination uses an unclaimed-unit counter rather than idle spinning:
// popping decrements it, stealing merely moves units between words, so
// when the counter hits zero no future pop anywhere can succeed and idle
// workers exit immediately instead of waiting for stragglers. The brief
// window in which a stolen range is in neither word is covered by a
// Gosched retry.
//
// A panic in fn cancels the pool (the other workers stop at the next
// unit boundary) and is re-raised on the caller's goroutine once every
// worker has parked, so an engine-level recover sees it exactly as it
// would from a plain loop. Cancellation of ctx is observed at unit
// granularity.

// PoolOptions configures one work-stealing Run.
type PoolOptions struct {
	// Workers is the number of goroutines; <= 0 means GOMAXPROCS(0).
	// The pool never runs more goroutines than there are units.
	Workers int
	// Grain is how many consecutive units an owner claims per CAS on
	// its own deque; <= 0 means 1. Steals always take half the victim's
	// remaining range regardless of Grain. Larger grains amortize the
	// claim CAS for very small units (leaf GCDs) at the cost of coarser
	// cancellation; unit-sized work (blocks, cells, tree nodes) uses 1.
	Grain int
	// Metrics, when non-nil, receives engine_steals_total,
	// engine_queue_depth and engine_worker_busy_seconds.
	Metrics *obs.Registry
}

// PoolStats reports what one Run did, for benchmark harnesses and the
// bulkgcd.bench.v1 core-scaling report.
type PoolStats struct {
	// Workers is the effective pool size after clamping.
	Workers int
	// Steals counts successful steal-half operations.
	Steals int64
	// Busy is per-worker time spent inside fn (not idle or stealing),
	// indexed by worker.
	Busy []time.Duration
}

// BusyTotal sums the per-worker busy times.
func (s *PoolStats) BusyTotal() time.Duration {
	var t time.Duration
	for _, b := range s.Busy {
		t += b
	}
	return t
}

// queueSlot is one worker's packed range, padded to a cache line so
// neighbouring workers' CAS traffic does not false-share.
type queueSlot struct {
	r atomic.Uint64
	_ [56]byte
}

func packRange(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

func unpackRange(v uint64) (lo, hi uint32) { return uint32(v >> 32), uint32(v) }

type pool struct {
	queues    []queueSlot
	unclaimed atomic.Int64
	steals    atomic.Int64
	grain     uint32
	fn        func(i, worker int)
	depth     *obs.Gauge
}

// pop claims up to grain units from the front of worker w's own range.
func (p *pool) pop(w int) (lo, hi int, ok bool) {
	q := &p.queues[w].r
	for {
		v := q.Load()
		l, h := unpackRange(v)
		if l >= h {
			return 0, 0, false
		}
		g := p.grain
		if h-l < g {
			g = h - l
		}
		if q.CompareAndSwap(v, packRange(l+g, h)) {
			p.unclaimed.Add(-int64(g))
			return int(l), int(l + g), true
		}
	}
}

// steal scans the other workers' ranges and moves the upper half of the
// first non-empty one into worker w's own (empty) slot. Only the owner
// ever stores to its slot and thieves skip empty slots, so the plain
// Store cannot race.
func (p *pool) steal(w int) bool {
	for off := 1; off < len(p.queues); off++ {
		v := (w + off) % len(p.queues)
		q := &p.queues[v].r
		for {
			cur := q.Load()
			l, h := unpackRange(cur)
			if l >= h {
				break
			}
			take := (h - l + 1) / 2
			mid := h - take
			if q.CompareAndSwap(cur, packRange(l, mid)) {
				p.queues[w].r.Store(packRange(mid, h))
				p.steals.Add(1)
				p.depth.Set(float64(p.unclaimed.Load()))
				return true
			}
		}
	}
	return false
}

func (p *pool) worker(ctx context.Context, w int, busy *time.Duration) {
	for {
		if ctx.Err() != nil {
			return
		}
		lo, hi, ok := p.pop(w)
		if !ok {
			if p.steal(w) {
				continue
			}
			if p.unclaimed.Load() == 0 {
				return
			}
			// A stolen range can transiently be in no slot between the
			// thief's CAS and its store; yield and rescan.
			runtime.Gosched()
			continue
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				*busy += time.Since(start)
				return
			}
			p.fn(i, w)
		}
		*busy += time.Since(start)
	}
}

// Run executes fn(i, worker) exactly once for every i in [0, n) across a
// work-stealing pool, discarding the stats. See RunStats.
func Run(ctx context.Context, n int, opt PoolOptions, fn func(i, worker int)) error {
	_, err := RunStats(ctx, n, opt, fn)
	return err
}

// RunStats executes fn(i, worker) exactly once for every i in [0, n)
// across a work-stealing pool and reports steal/busy statistics.
//
// Workers observe ctx at unit granularity and stop cooperatively; the
// ctx error (if any) is returned once all workers have drained, in
// which case some units may not have run. A panic in fn cancels the
// pool and re-panics on the caller's goroutine. n must fit in 32 bits
// (work units are blocks, cells or tree nodes — all far coarser than
// single pairs).
func RunStats(ctx context.Context, n int, opt PoolOptions, fn func(i, worker int)) (PoolStats, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	grain := opt.Grain
	if grain < 1 {
		grain = 1
	}
	if n <= 0 {
		return PoolStats{}, ctx.Err()
	}
	if n > 1<<31 {
		panic("engine: work-stealing pool limited to 2^31 units")
	}
	if workers <= 1 {
		st := PoolStats{Workers: 1, Busy: make([]time.Duration, 1)}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				st.Busy[0] = time.Since(start)
				return st, err
			}
			fn(i, 0)
		}
		st.Busy[0] = time.Since(start)
		return st, ctx.Err()
	}

	stealsTotal := opt.Metrics.Counter("engine_steals_total")
	busyHist := opt.Metrics.Histogram("engine_worker_busy_seconds", obs.DurationBuckets())
	p := &pool{
		queues: make([]queueSlot, workers),
		grain:  uint32(grain),
		fn:     fn,
		depth:  opt.Metrics.Gauge("engine_queue_depth"),
	}
	p.unclaimed.Store(int64(n))
	p.depth.Set(float64(n))
	for w := 0; w < workers; w++ {
		lo := uint32(w * n / workers)
		hi := uint32((w + 1) * n / workers)
		p.queues[w].r.Store(packRange(lo, hi))
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := PoolStats{Workers: workers, Busy: make([]time.Duration, workers)}
	var panicOnce sync.Once
	var panicked any
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					cancel()
				}
				wg.Done()
			}()
			p.worker(wctx, w, &st.Busy[w])
		}(w)
	}
	wg.Wait()
	p.depth.Set(0)
	if panicked != nil {
		panic(panicked)
	}
	st.Steals = p.steals.Load()
	stealsTotal.Add(st.Steals)
	for _, b := range st.Busy {
		busyHist.ObserveDuration(int64(b))
	}
	return st, ctx.Err()
}
