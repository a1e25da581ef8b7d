package subprod

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
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
			tree, err := Build(context.Background(), leaves, Options{
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

// TestBuildSkipRoot: SkipRoot stops the tree at the root's two children,
// whose product is the full product, and drops exactly the root
// multiplication. A one-leaf tree still ends at its root.
func TestBuildSkipRoot(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, m := range []int{2, 3, 5, 8, 17} {
		for _, workers := range []int{1, 4} {
			leaves := make([]*big.Int, m)
			want := big.NewInt(1)
			for i := range leaves {
				leaves[i] = randBig(r, 96)
				want.Mul(want, leaves[i])
			}
			var nodes int64
			var mu sync.Mutex
			tree, err := Build(context.Background(), leaves, Options{
				Workers:  workers,
				SkipRoot: true,
				OnNode: func() {
					mu.Lock()
					nodes++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			top := tree.Levels[len(tree.Levels)-1]
			if len(top) != 2 {
				t.Fatalf("m=%d: top level has %d nodes, want the root's two children", m, len(top))
			}
			if new(big.Int).Mul(top[0], top[1]).Cmp(want) != 0 {
				t.Fatalf("m=%d: top pair does not multiply to the product", m)
			}
			if nodes != int64(m-2) {
				t.Errorf("m=%d: %d multiplications, want m-2", m, nodes)
			}
		}
	}
	single, err := Build(context.Background(), []*big.Int{big.NewInt(42)}, Options{SkipRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	if single.Root().Int64() != 42 {
		t.Fatal("one-leaf SkipRoot tree lost its root")
	}
}

// TestRootRefusesRootlessTree: Root panics on a SkipRoot tree instead of
// returning a child that is not the product.
func TestRootRefusesRootlessTree(t *testing.T) {
	leaves := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7)}
	tree, err := Build(context.Background(), leaves, Options{SkipRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Root returned a node of a root-less tree")
		}
	}()
	tree.Root()
}

func TestBuildOnLevelWrapsEveryLevel(t *testing.T) {
	leaves := make([]*big.Int, 9)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(i + 2))
	}
	var levels []string
	_, err := Build(context.Background(), leaves, Options{
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
	if _, err := Build(ctx, leaves, Options{}); err == nil {
		t.Fatal("expected context error")
	}
}

// TestProduct covers the hybrid engine's tile-product helper: the
// balanced product of 0..33 moduli, never aliasing a single input.
func TestProduct(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, m := range []int{0, 1, 2, 3, 7, 33} {
		ms := make([]*big.Int, m)
		want := big.NewInt(1)
		for i := range ms {
			ms[i] = randBig(r, 64)
			want = new(big.Int).Mul(want, ms[i])
		}
		got := Product(ms)
		if got.Cmp(want) != 0 {
			t.Fatalf("m=%d: product mismatch", m)
		}
		if m == 1 && (got == ms[0] || &got.Bits()[0] == &ms[0].Bits()[0]) {
			t.Fatal("single-element product must not alias the input")
		}
	}
}

func TestCacheBudgetAndLRU(t *testing.T) {
	build := func(k int) func() *big.Int {
		return func() *big.Int {
			// 5 words = 40 bytes each.
			ws := make([]big.Word, 5)
			for i := range ws {
				ws[i] = big.Word(k + 1)
			}
			return new(big.Int).SetBits(ws)
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
				v := c.Get(k, func() *big.Int { return big.NewInt(int64(k + 1)) })
				if v.Uint64() != uint64(k+1) {
					t.Errorf("key %d: got %d", k, v.Uint64())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuildLeavesUntouched: level 0 aliases the caller's leaves and
// interior nodes never alias them, so a tree build must leave every
// input intact (the hybrid engine shares leaves across cached tiles).
func TestBuildLeavesUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	leaves := make([]*big.Int, 7)
	snapshots := make([]*big.Int, 7)
	for i := range leaves {
		leaves[i] = randBig(r, 96)
		snapshots[i] = new(big.Int).Set(leaves[i])
	}
	tree, err := Build(context.Background(), leaves, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range leaves {
		if leaves[i].Cmp(snapshots[i]) != 0 {
			t.Fatalf("leaf %d mutated by Build", i)
		}
		if tree.Levels[0][i] != leaves[i] {
			t.Fatalf("level 0 entry %d does not alias the input leaf", i)
		}
	}
	if root := tree.Root(); root == leaves[len(leaves)-1] {
		t.Fatal("root aliases a leaf")
	}
}

// TestBuildNodesCompact guards the node compaction: math/big's
// Karatsuba leaves a product with about three times its length in
// capacity, and a tree that kept those products would hold the slack
// for its whole life. 1024-bit leaves put the upper levels well past
// math/big's Karatsuba threshold.
func TestBuildNodesCompact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	leaves := make([]*big.Int, 64)
	for i := range leaves {
		leaves[i] = randBig(r, 1024)
	}
	for _, workers := range []int{1, 3} {
		tree, err := Build(context.Background(), leaves, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l < len(tree.Levels); l++ {
			for i, node := range tree.Levels[l] {
				if spare := cap(node.Bits()) - len(node.Bits()); spare > 4 {
					t.Fatalf("workers=%d: node (%d,%d) has %d words, %d spare", workers, l, i, len(node.Bits()), spare)
				}
			}
		}
	}
	if p := Product(leaves[:33]); cap(p.Bits())-len(p.Bits()) > 4 {
		t.Fatalf("Product left %d spare words", cap(p.Bits())-len(p.Bits()))
	}
}

// TestKeyedCache exercises the generic-key cache the registry's node
// store uses: struct keys, Put insertion, Drop invalidation, and the
// LRU budget discipline shared with the int-keyed tile cache.
func TestKeyedCache(t *testing.T) {
	type nodeKey struct{ level, index int }
	val := func(words int) *big.Int { // words big.Words of payload
		ws := make([]big.Word, words)
		for i := range ws {
			ws[i] = big.Word(i + 1)
		}
		return new(big.Int).SetBits(ws)
	}
	c := NewKeyedCache[nodeKey](40) // room for two 2-word (16-byte) values plus change
	builds := 0
	get := func(k nodeKey) *big.Int {
		return c.Get(k, func() *big.Int { builds++; return val(2) })
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
	first := c.Put(nodeKey{3, 3}, val(1))
	second := c.Put(nodeKey{3, 3}, val(1))
	if first != second {
		t.Fatal("second Put did not return the retained value")
	}
	// Drop invalidates: the next Get rebuilds.
	c.Drop(nodeKey{3, 3})
	rebuilt := c.Get(nodeKey{3, 3}, func() *big.Int { return val(3) })
	if len(rebuilt.Bits()) != 3 {
		t.Fatal("Drop did not invalidate the entry")
	}
	// A value larger than the whole budget is returned but never retained.
	huge := c.Put(nodeKey{9, 9}, val(100))
	if huge == nil || c.Stats().Bytes > 40 {
		t.Fatalf("oversized value retained: %+v", c.Stats())
	}
}
