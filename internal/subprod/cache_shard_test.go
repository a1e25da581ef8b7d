package subprod

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestCacheShardsSpreadKeys checks sequential int keys land on distinct
// shards and that the shard count rounds up to a power of two.
func TestCacheShardsSpreadKeys(t *testing.T) {
	for workers, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 7: 8, 8: 8, 9: 16, 100: 16} {
		c := NewCacheShards(1<<20, workers)
		if got := len(c.shards); got != want {
			t.Errorf("workers=%d: %d shards, want %d", workers, got, want)
		}
	}
	c := NewCacheShards(1<<20, 8)
	seen := map[*cacheShard[int]]bool{}
	for k := 0; k < 8; k++ {
		seen[c.shard(k)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("8 sequential keys hit %d shards, want 8", len(seen))
	}
}

// TestCacheShardsBudgetHolds hammers a sharded cache from many
// goroutines and checks the invariants that survive sharding: total
// bytes never exceed the budget (every value fits its shard slice, so
// the keep-at-least-one clause never overshoots), every Get returns the
// right value, and the stats add up.
func TestCacheShardsBudgetHolds(t *testing.T) {
	const budget = 16 * 1024
	c := NewCacheShards(budget, 8)
	val := func(k int) *big.Int {
		ws := make([]big.Word, 4) // 32 bytes, far under budget/16
		for i := range ws {
			ws[i] = big.Word(k + 1)
		}
		return new(big.Int).SetBits(ws)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w*131 + i) % 977
				got := c.Get(k, func() *big.Int { return val(k) })
				if got.Bits()[0] != big.Word(k+1) {
					t.Errorf("key %d: wrong value", k)
					return
				}
				if i%97 == 0 {
					c.Drop(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	if st.Builds < st.Misses {
		t.Fatalf("builds %d < misses %d", st.Builds, st.Misses)
	}
}

// TestCacheShardsOversizedValue: a value larger than its shard's budget
// slice is handed out but never retained.
func TestCacheShardsOversizedValue(t *testing.T) {
	c := NewCacheShards(64, 4) // 16 bytes per shard
	ws := make([]big.Word, 4)  // 32 bytes
	for i := range ws {
		ws[i] = 7
	}
	v := c.Put(3, new(big.Int).SetBits(ws))
	if v == nil || v.Bits()[0] != 7 {
		t.Fatal("oversized value not handed back")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized value retained: %+v", st)
	}
}

// BenchmarkCacheProbe measures the probe cost of a hot all-hits cache
// under parallel load, single-shard vs sharded — the contention the
// hybrid engine's filter loop pays on every tile.
func BenchmarkCacheProbe(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewCacheShards(1<<20, shards)
			if shards == 1 {
				c = NewCache(1 << 20)
			}
			const keys = 64
			for k := 0; k < keys; k++ {
				kk := k
				c.Get(k, func() *big.Int { return big.NewInt(int64(kk + 1)) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					c.Get(k%keys, func() *big.Int { return big.NewInt(int64(k%keys + 1)) })
					k++
				}
			})
		})
	}
}
