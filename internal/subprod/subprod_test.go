package subprod

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"bulkgcd/internal/mpnat"
)

func randBig(r *rand.Rand, bits int) *big.Int {
	v := new(big.Int)
	for v.BitLen() < bits {
		v.Lsh(v, 32)
		v.Or(v, new(big.Int).SetUint64(uint64(r.Uint32())))
	}
	return v.SetBit(v, 0, 1) // odd, like a modulus
}

func TestBuildMatchesDirectProduct(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 3, 5, 8, 17, 64} {
		for _, workers := range []int{1, 4} {
			leaves := make([]*big.Int, m)
			want := big.NewInt(1)
			for i := range leaves {
				leaves[i] = randBig(r, 96)
				want = new(big.Int).Mul(want, leaves[i])
			}
			var nodes int64
			var mu sync.Mutex
			tree, err := Build(context.Background(), leaves, BuildOptions{
				Workers: workers,
				OnNode: func() {
					mu.Lock()
					nodes++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("m=%d workers=%d: %v", m, workers, err)
			}
			if tree.Root().Cmp(want) != 0 {
				t.Fatalf("m=%d workers=%d: root != direct product", m, workers)
			}
			if nodes != int64(m-1) {
				t.Errorf("m=%d: %d multiplications, want m-1", m, nodes)
			}
		}
	}
}

func TestBuildOnLevelWrapsEveryLevel(t *testing.T) {
	leaves := make([]*big.Int, 9)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(i + 2))
	}
	var levels []string
	_, err := Build(context.Background(), leaves, BuildOptions{
		OnLevel: func(level, nodes int, run func() error) error {
			levels = append(levels, fmt.Sprintf("%d:%d", level, nodes))
			return run()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 9 -> 5 -> 3 -> 2 -> 1: pairs per level 4, 2, 1, 1.
	want := []string{"1:4", "2:2", "3:1", "4:1"}
	if fmt.Sprint(levels) != fmt.Sprint(want) {
		t.Errorf("levels = %v, want %v", levels, want)
	}
}

func TestBuildCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	leaves := []*big.Int{big.NewInt(3), big.NewInt(5)}
	if _, err := Build(ctx, leaves, BuildOptions{}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestProductNat(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, m := range []int{0, 1, 2, 3, 7, 33} {
		ms := make([]*mpnat.Nat, m)
		want := big.NewInt(1)
		for i := range ms {
			b := randBig(r, 64)
			ms[i] = mpnat.FromBig(b)
			want = new(big.Int).Mul(want, b)
		}
		got := ProductNat(ms)
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("m=%d: product mismatch", m)
		}
		if m == 1 && got == ms[0] {
			t.Fatal("single-element product must not alias the input")
		}
	}
}

func TestCacheBudgetAndLRU(t *testing.T) {
	build := func(k int) func() *mpnat.Nat {
		return func() *mpnat.Nat {
			// 10 words = 40 bytes each.
			ws := make([]uint32, 10)
			for i := range ws {
				ws[i] = uint32(k + 1)
			}
			return mpnat.NewFromWords(ws)
		}
	}
	c := NewCache(100) // fits 2 of the 40-byte values
	a := c.Get(0, build(0))
	if got := c.Get(0, build(0)); got != a {
		t.Fatal("hit should return the cached pointer")
	}
	c.Get(1, build(1))
	c.Get(2, build(2)) // evicts key 0 (LRU)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if got := c.Get(0, build(0)); got == a {
		t.Fatal("evicted key rebuilt: must be a fresh value")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}

	// A value bigger than the whole budget is returned but not retained.
	tiny := NewCache(8)
	tiny.Get(7, build(7))
	if st := tiny.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized value retained: %+v", st)
	}

	// Unlimited budget never evicts.
	unl := NewCache(0)
	for k := 0; k < 50; k++ {
		unl.Get(k, build(k))
	}
	if st := unl.Stats(); st.Evictions != 0 || st.Entries != 50 {
		t.Fatalf("unlimited cache: %+v", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 17
				v := c.Get(k, func() *mpnat.Nat { return mpnat.New(uint64(k + 1)) })
				if v.Uint64() != uint64(k+1) {
					t.Errorf("key %d: got %d", k, v.Uint64())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuildNatMatchesBig: the big.Int and mpnat tree builds share one
// buildLevels loop, so every node of every level — not just the root —
// must be the same integer, for even and odd leaf counts, serial and
// parallel, with the observability hooks firing identically. With
// 128-bit leaves the nodes of up to 4 leaves multiply below the
// 24-word cutoff and the larger ones on mpnat's math/big path, so both
// Mul paths are compared node for node.
func TestBuildNatMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, m := range []int{1, 2, 3, 5, 9, 16, 33, 64} {
		for _, workers := range []int{1, 4} {
			big_ := make([]*big.Int, m)
			nat := make([]*mpnat.Nat, m)
			for i := range big_ {
				big_[i] = randBig(r, 128)
				nat[i] = mpnat.FromBig(big_[i])
			}
			var bigNodes, natNodes int64
			var mu sync.Mutex
			count := func(n *int64) func() {
				return func() { mu.Lock(); *n++; mu.Unlock() }
			}
			bt, err := Build(context.Background(), big_, BuildOptions{Workers: workers, OnNode: count(&bigNodes)})
			if err != nil {
				t.Fatal(err)
			}
			nt, err := BuildNat(context.Background(), nat, BuildOptions{Workers: workers, OnNode: count(&natNodes)})
			if err != nil {
				t.Fatal(err)
			}
			if len(bt.Levels) != len(nt.Levels) {
				t.Fatalf("m=%d: %d big levels vs %d nat levels", m, len(bt.Levels), len(nt.Levels))
			}
			for l := range bt.Levels {
				if len(bt.Levels[l]) != len(nt.Levels[l]) {
					t.Fatalf("m=%d level %d: width %d vs %d", m, l, len(bt.Levels[l]), len(nt.Levels[l]))
				}
				for i := range bt.Levels[l] {
					if nt.Levels[l][i].ToBig().Cmp(bt.Levels[l][i]) != 0 {
						t.Fatalf("m=%d workers=%d: node (%d,%d) differs across backends", m, workers, l, i)
					}
				}
			}
			if bigNodes != natNodes || bigNodes != int64(m-1) {
				t.Fatalf("m=%d: OnNode fired %d (big) / %d (nat), want %d", m, bigNodes, natNodes, m-1)
			}
		}
	}
}

// TestBuildNatLeavesUntouched: level 0 aliases the caller's leaves and
// interior nodes never alias them, so a tree build must leave every
// input word-for-word intact (the hybrid engine shares leaves across
// cached tiles).
func TestBuildNatLeavesUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	leaves := make([]*mpnat.Nat, 7)
	snapshots := make([]*mpnat.Nat, 7)
	for i := range leaves {
		leaves[i] = mpnat.FromBig(randBig(r, 96))
		snapshots[i] = leaves[i].Clone()
	}
	tree, err := BuildNat(context.Background(), leaves, BuildOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range leaves {
		if leaves[i].Cmp(snapshots[i]) != 0 {
			t.Fatalf("leaf %d mutated by BuildNat", i)
		}
		if tree.Levels[0][i] != leaves[i] {
			t.Fatalf("level 0 entry %d does not alias the input leaf", i)
		}
	}
	for l := 1; l < len(tree.Levels); l++ {
		for _, node := range tree.Levels[l] {
			for _, leaf := range leaves {
				if node == leaf && l == len(tree.Levels)-1 {
					t.Fatalf("root aliases a leaf")
				}
			}
		}
	}
}

// TestBuildNatCanceled mirrors TestBuildCanceled on the Nat path.
func TestBuildNatCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	leaves := []*mpnat.Nat{mpnat.New(3), mpnat.New(5)}
	if _, err := BuildNat(ctx, leaves, BuildOptions{}); err == nil {
		t.Fatal("expected context error")
	}
}

// TestKeyedCache exercises the generic-key cache the registry's node
// store uses: struct keys, Put insertion, Drop invalidation, and the
// LRU budget discipline shared with the int-keyed tile cache.
func TestKeyedCache(t *testing.T) {
	type nodeKey struct{ level, index int }
	val := func(words int) *mpnat.Nat { // words 32-bit words of payload
		ws := make([]uint32, words)
		for i := range ws {
			ws[i] = uint32(i + 1)
		}
		return mpnat.NewFromWords(ws)
	}
	c := NewKeyedCache[nodeKey](40) // room for two 4-word (16-byte) values plus change
	builds := 0
	get := func(k nodeKey) *mpnat.Nat {
		return c.Get(k, func() *mpnat.Nat { builds++; return val(4) })
	}
	a, b := nodeKey{1, 0}, nodeKey{1, 1}
	get(a)
	get(a)
	if builds != 1 {
		t.Fatalf("builds = %d after two Gets of one key, want 1", builds)
	}
	get(b)
	get(nodeKey{2, 0}) // exceeds 40 bytes: evicts the LRU entry (a)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v, want 1 eviction, 2 entries", st)
	}
	get(a) // must rebuild
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (a rebuilt after eviction)", builds)
	}

	// Put retains the value; a second Put of the same key keeps the first.
	first := c.Put(nodeKey{3, 3}, val(2))
	second := c.Put(nodeKey{3, 3}, val(2))
	if first != second {
		t.Fatal("second Put did not return the retained value")
	}
	// Drop invalidates: the next Get rebuilds.
	c.Drop(nodeKey{3, 3})
	rebuilt := c.Get(nodeKey{3, 3}, func() *mpnat.Nat { return val(3) })
	if rebuilt.Len() != 3 {
		t.Fatal("Drop did not invalidate the entry")
	}
	// A value larger than the whole budget is returned but never retained.
	huge := c.Put(nodeKey{9, 9}, val(100))
	if huge == nil || c.Stats().Bytes > 40 {
		t.Fatalf("oversized value retained: %+v", c.Stats())
	}
}
