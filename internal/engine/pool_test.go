package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulkgcd/internal/obs"
)

// TestRunCoversEveryUnit checks the exactly-once contract over a grid
// of sizes and pool widths, including degenerate shapes.
func TestRunCoversEveryUnit(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 7, 16, 33} {
			var hits sync.Map
			var count atomic.Int64
			err := Run(context.Background(), n, PoolOptions{Workers: workers}, func(i, w int) {
				if i < 0 || i >= n {
					t.Errorf("n=%d workers=%d: index %d out of range", n, workers, i)
				}
				if workers > 0 && (w < 0 || w >= workers) {
					t.Errorf("n=%d workers=%d: worker %d out of range", n, workers, w)
				}
				if _, dup := hits.LoadOrStore(i, true); dup {
					t.Errorf("n=%d workers=%d: index %d ran twice", n, workers, i)
				}
				count.Add(1)
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if got := count.Load(); got != int64(n) {
				t.Fatalf("n=%d workers=%d: ran %d units", n, workers, got)
			}
		}
	}
}

// TestRunWorkerIndexIsExclusive verifies a worker index is never
// serviced by two goroutines at once, the property per-worker arenas
// rely on.
func TestRunWorkerIndexIsExclusive(t *testing.T) {
	const workers = 8
	var active [workers]atomic.Int32
	err := Run(context.Background(), 4096, PoolOptions{Workers: workers}, func(i, w int) {
		if active[w].Add(1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		active[w].Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunStraggler: unit 0 blocks until every other unit has run, so
// the run completes only if the free workers take all of them. A pool
// that splits the units statically parks units behind the straggler on
// its worker; the watchdog then fails the test and releases unit 0
// instead of letting the test hang.
func TestRunStraggler(t *testing.T) {
	const n = 512
	var others atomic.Int64
	rest, stop := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Run(context.Background(), n, PoolOptions{Workers: 4}, func(i, w int) {
			if i == 0 {
				select {
				case <-rest:
				case <-stop:
				}
				return
			}
			if others.Add(1) == n-1 {
				close(rest)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		ran := others.Load()
		close(stop)
		<-done
		t.Fatalf("unit 0 waited 30s: only %d of the %d other units ran while it blocked", ran, n-1)
	}
}

// TestRunMetrics wires a registry and checks the busy histogram gets
// one observation per worker.
func TestRunMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	err := Run(context.Background(), 256, PoolOptions{Workers: 4, Metrics: reg}, func(i, w int) {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := reg.Snapshot().Histograms["engine_worker_busy_seconds"]
	if !ok || h.Count != 4 || h.Sum <= 0 {
		t.Fatalf("engine_worker_busy_seconds: ok=%v count=%d sum=%v, want one observation per worker", ok, h.Count, h.Sum)
	}
}

// TestRunPanicPropagates: a panic in fn must cancel the pool (other
// workers stop claiming) and re-raise on the caller's goroutine.
func TestRunPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var after atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v", workers, r)
				}
			}()
			_ = Run(context.Background(), 10000, PoolOptions{Workers: workers}, func(i, w int) {
				if i == 37 {
					panic("boom")
				}
				after.Add(1)
			})
		}()
		// Cancellation is cooperative at unit granularity, so a few
		// in-flight units may finish, but the pool must not drain all
		// 10000 units after the panic.
		if after.Load() >= 9999 {
			t.Fatalf("workers=%d: pool kept running after panic (%d units)", workers, after.Load())
		}
	}
}

// TestRunCancellation: cancelling the context mid-run stops the pool
// cooperatively and surfaces the ctx error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Run(ctx, 100000, PoolOptions{Workers: 4}, func(i, w int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 100000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

// TestRunCancelledBeforeStart: ctx is checked before every unit, so an
// already-cancelled context runs nothing (single- and multi-worker
// paths).
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(ctx, 64, PoolOptions{Workers: workers}, func(i, w int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d units on a dead context", workers, ran.Load())
		}
	}
}

// TestRunHammer drives many concurrent pools at once under the race
// detector to shake out races on the shared cursor.
func TestRunHammer(t *testing.T) {
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var count atomic.Int64
			if err := Run(context.Background(), 2048, PoolOptions{Workers: 1 + r%5}, func(i, w int) {
				count.Add(1)
			}); err != nil {
				t.Error(err)
			}
			if count.Load() != 2048 {
				t.Errorf("pool %d ran %d units", r, count.Load())
			}
		}(r)
	}
	wg.Wait()
}
