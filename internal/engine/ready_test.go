package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bulkgcd/internal/obs"
)

// forest is a test workload for RunReady: unit u's children are
// children[u], and the roots are the units without a parent.
type forest struct {
	parent   []int // -1 for a root
	children [][]int
	roots    []int
}

// randomForest returns n units in which each unit after the first is a
// root with probability 1/8 and otherwise the child of a random earlier
// unit, so shapes run from long chains to wide fans.
func randomForest(r *rand.Rand, n int) forest {
	f := forest{parent: make([]int, n), children: make([][]int, n)}
	for u := range f.parent {
		if u == 0 || r.Intn(8) == 0 {
			f.parent[u] = -1
			f.roots = append(f.roots, u)
			continue
		}
		p := r.Intn(u)
		f.parent[u] = p
		f.children[p] = append(f.children[p], u)
	}
	return f
}

// check runs f on RunReady at width workers and fails unless every unit
// ran exactly once, after the unit that released it finished, with a
// worker index in [0, limit).
func (f forest) check(t testing.TB, workers int) {
	t.Helper()
	limit := workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	n := len(f.parent)
	runs := make([]atomic.Int32, n)
	done := make([]atomic.Bool, n)
	var fault atomic.Value
	// RunReady takes ownership of its roots, and f runs at several widths.
	err := RunReady(context.Background(), slices.Clone(f.roots), PoolOptions{Workers: workers}, func(u, w int, release func(int)) {
		switch {
		case w < 0 || w >= limit:
			fault.CompareAndSwap(nil, "worker index out of range")
		case f.parent[u] >= 0 && !done[f.parent[u]].Load():
			fault.CompareAndSwap(nil, "a unit ran before the unit that released it finished")
		}
		runs[u].Add(1)
		for _, c := range f.children[u] {
			release(c)
		}
		done[u].Store(true)
	})
	if err != nil {
		t.Fatalf("%d units, workers=%d: %v", n, workers, err)
	}
	if msg := fault.Load(); msg != nil {
		t.Fatalf("%d units, workers=%d: %s", n, workers, msg)
	}
	for u := range runs {
		if c := runs[u].Load(); c != 1 {
			t.Fatalf("%d units, workers=%d: unit %d ran %d times", n, workers, u, c)
		}
	}
}

// TestRunReadyRunsEveryUnitAfterItsParent: over random forests, from
// none or one unit to long chains and wide fans, every unit runs exactly
// once and after the unit that released it, at every width.
func TestRunReadyRunsEveryUnitAfterItsParent(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, n := range []int{0, 1, 2, 3, 17, 200, 3000} {
		for rep := 0; rep < 3; rep++ {
			f := randomForest(r, n)
			for _, workers := range []int{0, 1, 2, 3, 7, 16} {
				f.check(t, workers)
			}
		}
	}
}

// TestRunReadyWorkerIndexIsExclusive: a worker index is never serviced
// by two goroutines at once, the property per-worker scratch relies on.
func TestRunReadyWorkerIndexIsExclusive(t *testing.T) {
	const workers = 8
	f := randomForest(rand.New(rand.NewSource(31)), 4096)
	var active [workers]atomic.Int32
	err := RunReady(context.Background(), f.roots, PoolOptions{Workers: workers}, func(u, w int, release func(int)) {
		if active[w].Add(1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		for _, c := range f.children[u] {
			release(c)
		}
		active[w].Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunReadyNoLevelBarrier: root 0 blocks until every descendant of
// root 1, a four-level binary tree, has run. At width 2 the run
// completes only if the free worker takes each unit as soon as its
// parent is done; a schedule that waits for a whole level (root 0's)
// before the next parks root 1's children behind root 0 for good. The
// watchdog then fails the test and releases root 0 instead of letting
// the test hang.
func TestRunReadyNoLevelBarrier(t *testing.T) {
	const depth = 4
	const below = 1<<(depth+1) - 2 // root 1's descendants
	// A unit is (level, index); root 1 is (depth, 1) and unit (l, i)
	// releases (l-1, 2i) and (l-1, 2i+1).
	type unit struct{ lvl, i int }
	var ran atomic.Int64
	rest, stop := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		roots := []unit{{depth, 0}, {depth, 1}}
		done <- RunReady(context.Background(), roots, PoolOptions{Workers: 2}, func(u unit, w int, release func(unit)) {
			if u == (unit{depth, 0}) {
				select {
				case <-rest:
				case <-stop:
				}
				return
			}
			if u.lvl < depth && ran.Add(1) == below {
				close(rest)
			}
			if u.lvl > 0 {
				release(unit{u.lvl - 1, 2 * u.i})
				release(unit{u.lvl - 1, 2*u.i + 1})
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != below {
			t.Fatalf("%d of root 1's %d descendants ran", got, below)
		}
	case <-time.After(30 * time.Second):
		got := ran.Load()
		close(stop)
		<-done
		t.Fatalf("root 0 waited 30s: only %d of root 1's %d descendants ran while it blocked", got, below)
	}
}

// TestRunReadyCancelledBeforeStart: ctx is checked before every unit,
// so an already-cancelled context runs nothing, inline or on the pool.
func TestRunReadyCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := RunReady(ctx, []int{0, 1, 2, 3, 4, 5, 6, 7}, PoolOptions{Workers: workers}, func(u, w int, release func(int)) {
			ran.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d units on a dead context", workers, ran.Load())
		}
	}
}

// TestRunReadyCancellation: cancelling the context mid-run stops the
// pool at the next unit and surfaces the ctx error, even though every
// unit keeps releasing more.
func TestRunReadyCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := RunReady(ctx, []int{0}, PoolOptions{Workers: workers}, func(u, w int, release func(int)) {
			if ran.Add(1) == 50 {
				cancel()
			}
			release(2*u + 1)
			release(2*u + 2)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A unit claimed before the cancel may still run on each worker.
		if got := ran.Load(); got > 50+int64(workers) {
			t.Fatalf("workers=%d: %d units ran, want the pool to stop after 50", workers, got)
		}
		cancel()
	}
}

// TestRunReadyPanicAfterEveryWorker: a panic in fn stops the pool and is
// re-raised on the caller only after every worker has returned. Unit 0
// panics once units 1-3 are running on the other workers; they are
// still inside fn when it does, and the caller's recover must find none
// in flight.
func TestRunReadyPanicAfterEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var started, inFlight atomic.Int64
		roots := []int{1, 2, 3, 0}
		if workers > 1 {
			roots = []int{0, 1, 2, 3}
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					return // the Fatalf below has reported it
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v, want the unit's panic", workers, r)
				}
				if n := inFlight.Load(); n != 0 {
					t.Fatalf("workers=%d: panic re-raised with %d units still running", workers, n)
				}
			}()
			_ = RunReady(context.Background(), roots, PoolOptions{Workers: workers}, func(u, w int, release func(int)) {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				started.Add(1)
				if u == 0 {
					for deadline := time.Now().Add(10 * time.Second); started.Load() < 4 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					panic("boom")
				}
				if workers > 1 {
					time.Sleep(50 * time.Millisecond)
				}
				release(u + 4)
			})
			t.Fatalf("workers=%d: panic did not propagate", workers)
		}()
	}
}

// TestRunReadyBusyCountsOnlyFn: engine_worker_busy_seconds gets one
// observation per worker and sums the time spent inside fn. Four
// workers wait while one unit sleeps, so a count that included waiting
// for a ready unit would read about four times the unit's duration;
// the bound of three leaves room for scheduling delays.
func TestRunReadyBusyCountsOnlyFn(t *testing.T) {
	reg := obs.NewRegistry()
	var inside time.Duration
	err := RunReady(context.Background(), []int{0}, PoolOptions{Workers: 4, Metrics: reg}, func(u, w int, release func(int)) {
		start := time.Now()
		time.Sleep(20 * time.Millisecond)
		inside = time.Since(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Snapshot().Histograms["engine_worker_busy_seconds"]
	if h.Count != 4 {
		t.Fatalf("engine_worker_busy_seconds: %d observations, want one per worker", h.Count)
	}
	if in := inside.Seconds(); h.Sum < in || h.Sum > 3*in {
		t.Fatalf("engine_worker_busy_seconds sums %.4fs for one unit of %.4fs", h.Sum, in)
	}
}

// TestRunReadyAdoptsRoots: RunReady uses the caller's roots slice as its
// ready list. A breadth-first descent of a perfect binary tree, whose
// roots slice has room for twice the tree's leaves, allocates no more
// at 16 or 4096 leaves than a run of one unit that releases nothing:
// the roots slice is the descent's one list allocation, and the list
// never grows, though its last level puts every leaf on it at once.
func TestRunReadyAdoptsRoots(t *testing.T) {
	type unit struct{ lvl, i int }
	descend := func(u unit, w int, release func(unit)) {
		if u.lvl > 0 {
			release(unit{u.lvl - 1, 2 * u.i})
			release(unit{u.lvl - 1, 2*u.i + 1})
		}
	}
	run := func(depth int) float64 {
		return testing.AllocsPerRun(20, func() {
			roots := make([]unit, 1, 2<<depth)
			roots[0] = unit{depth, 0}
			if err := RunReady(context.Background(), roots, PoolOptions{Workers: 1}, descend); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(0)
	for _, depth := range []int{4, 12} {
		if got := run(depth); got != base {
			t.Errorf("descent of %d leaves: %v allocations, want %v, as for one unit (the roots slice and the run's fixed cost)", 1<<depth, got, base)
		}
	}
}
