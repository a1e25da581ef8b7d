package subprod

import (
	"context"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
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

// TestBuildOnNodeCountsMultiplications: Build's one hook, OnNode, runs
// once per multiplication and never for a promoted odd node, inline and
// on the pool.
func TestBuildOnNodeCountsMultiplications(t *testing.T) {
	leaves := make([]*big.Int, 9)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(i + 2))
	}
	// 9 -> 5 -> 3 -> 2 -> 1: pairs per level 4, 2, 1, 1, and the root
	// pair is the one SkipRoot drops.
	for _, c := range []struct {
		skip bool
		want int64
	}{{false, 8}, {true, 7}} {
		for _, workers := range []int{1, 3} {
			var nodes atomic.Int64
			_, err := Build(context.Background(), leaves, Options{
				Workers: workers, SkipRoot: c.skip, OnNode: func() { nodes.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if nodes.Load() != c.want {
				t.Errorf("skip=%v workers=%d: %d multiplications, want %d", c.skip, workers, nodes.Load(), c.want)
			}
		}
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

// TestBuildLeavesUntouched: level 0 aliases the caller's leaves and
// interior nodes never alias them, so a tree build must leave every
// input intact (the hybrid engine shares leaves across its trees and
// column products).
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
