package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// FuzzRunCoverage drives the pool with adversarial (n, workers) shapes
// and checks the one invariant everything else in the repository leans
// on: every unit index in [0, n) is executed exactly once, with a worker
// index below min(workers, n), since the pool never starts more workers
// than units. The fuzzer explores more workers than units and the
// degenerate inline paths (workers <= 1, n <= 1).
func FuzzRunCoverage(f *testing.F) {
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(1), uint8(0))
	f.Add(uint16(97), uint8(7))
	f.Add(uint16(1000), uint8(16))
	f.Add(uint16(5), uint8(200))
	f.Add(uint16(64), uint8(4))
	f.Fuzz(func(t *testing.T, n16 uint16, w8 uint8) {
		n := int(n16) % 2048
		workers := int(w8) % 33 // 0 means GOMAXPROCS
		limit := workers
		if limit == 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		limit = min(limit, n) // worker indices the pool may hand out

		counts := make([]atomic.Int32, n)
		err := Run(context.Background(), n, PoolOptions{Workers: workers}, func(i, w int) {
			if i < 0 || i >= n {
				panic("unit index out of range")
			}
			if w < 0 || w >= limit {
				panic("worker index out of range")
			}
			counts[i].Add(1)
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", n, workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d workers=%d: unit %d ran %d times", n, workers, i, c)
			}
		}
	})
}

// FuzzRunReadyCoverage drives RunReady with adversarial forests and
// widths: byte u of shape makes unit u a root when shape[u] mod (u+1)
// is u, and otherwise the child of that earlier unit, so the fuzzer
// reaches chains, fans, many roots and no units at all. Every unit must
// run exactly once, after the unit that released it, with a worker
// index below the width (workers 0 means GOMAXPROCS).
func FuzzRunReadyCoverage(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(3))        // one fan
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(2))     // one chain
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(16))    // every unit a root
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3, 3, 4}, uint8(7))  // a binary tree
	f.Add([]byte{9, 200, 31, 4, 77, 0, 13, 250}, uint8(1)) // inline
	f.Fuzz(func(t *testing.T, shape []byte, w8 uint8) {
		n := min(len(shape), 1024)
		fr := forest{parent: make([]int, n), children: make([][]int, n)}
		for u := 0; u < n; u++ {
			p := int(shape[u]) % (u + 1)
			if p == u {
				fr.parent[u] = -1
				fr.roots = append(fr.roots, u)
				continue
			}
			fr.parent[u] = p
			fr.children[p] = append(fr.children[p], u)
		}
		fr.check(t, int(w8)%17)
	})
}
