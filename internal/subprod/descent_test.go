package subprod

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"
)

// naiveReduce returns x mod n_i for every leaf, in math/big.
func naiveReduce(ms []*big.Int, x *big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	for i, n := range ms {
		out[i] = new(big.Int).Mod(x, n)
	}
	return out
}

// naivePrefixes returns x·n_0⋯n_{i-1} mod n_i for every leaf, in
// math/big.
func naivePrefixes(ms []*big.Int, x *big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	p := new(big.Int).Set(x)
	for i, n := range ms {
		out[i] = new(big.Int).Mod(p, n)
		p.Mul(p, n)
	}
	return out
}

// naiveSuffixes returns x·n_{i+1}⋯n_{m-1} mod n_i for every leaf, in
// math/big.
func naiveSuffixes(ms []*big.Int, x *big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	p := new(big.Int).Set(x)
	for i := len(ms) - 1; i >= 0; i-- {
		out[i] = new(big.Int).Mod(p, ms[i])
		p.Mul(p, ms[i])
	}
	return out
}

// checkDescents builds ms's tree with and without SkipRoot at Workers 1,
// 2, 3 and 7 and compares the three descents with the naive residues.
func checkDescents(t *testing.T, label string, ms []*big.Int, xs []*big.Int) {
	t.Helper()
	ctx := context.Background()
	for _, skip := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 7} {
			opt := Options{Workers: workers, SkipRoot: skip}
			tree, err := Build(ctx, ms, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				for _, d := range []struct {
					name  string
					run   func(context.Context, *Tree, *big.Int, Options) ([]*big.Int, error)
					naive func([]*big.Int, *big.Int) []*big.Int
				}{
					{"Reduce", Reduce, naiveReduce},
					{"Prefixes", Prefixes, naivePrefixes},
					{"Suffixes", Suffixes, naiveSuffixes},
				} {
					snapshot := new(big.Int).Set(x)
					rs, err := d.run(ctx, tree, x, opt)
					if err != nil {
						t.Fatal(err)
					}
					if x.Cmp(snapshot) != 0 {
						t.Fatalf("%s: %s modified x", label, d.name)
					}
					want := d.naive(ms, x)
					for i := range ms {
						if rs[i].Cmp(want[i]) != 0 {
							t.Fatalf("%s %s skip=%v workers=%d x=%v: leaf %d (n=%v) residue %v, want %v",
								label, d.name, skip, workers, x, i, ms[i], rs[i], want[i])
						}
						if rs[i] == x {
							t.Fatalf("%s: %s residue %d aliases x", label, d.name, i)
						}
					}
				}
			}
		}
	}
}

// TestDescentsMatchNaive: Reduce equals x mod n_i, Prefixes equals
// x·Π_{j<i} n_j mod n_i and Suffixes x·Π_{j>i} n_j mod n_i at every
// leaf, on trees with and without their root and at Workers 1, 2, 3
// and 7. The sizes cover a single leaf, a lone top pair, and promoted
// odd nodes at one or several levels. Each size runs
// on random leaves and on leaves planted with a 1, a duplicate pair and
// a leaf dividing the product of two others; x runs over 0, a value
// below every leaf, the product of the leaves times a random factor, and
// a random value above them.
func TestDescentsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 65} {
		for _, planted := range []bool{false, true} {
			ms := make([]*big.Int, m)
			for i := range ms {
				ms[i] = randBig(r, 64+r.Intn(65))
			}
			if planted {
				ms[min(1, m-1)] = big.NewInt(1)
				if m >= 3 {
					ms[2] = new(big.Int).Set(ms[0])
				}
				if m >= 5 {
					ms[3] = new(big.Int).Mul(ms[0], ms[4])
				}
				r.Shuffle(m, func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
			}
			prod := big.NewInt(1)
			for _, n := range ms {
				prod.Mul(prod, n)
			}
			xs := []*big.Int{
				new(big.Int),
				big.NewInt(1 + r.Int63n(1<<40)), // below every random leaf
				new(big.Int).Mul(prod, randBig(r, 40)),
				randBig(r, 96*m),
			}
			label := fmt.Sprintf("m=%d planted=%v", m, planted)
			checkDescents(t, label, ms, xs)
		}
	}
}

// TestDescentHooks: a descent has no level boundaries, so its one hook
// is OnNode, called once per residue, promoted odd nodes included,
// inline and on the pool. A one-leaf tree runs no hook.
func TestDescentHooks(t *testing.T) {
	leaves := make([]*big.Int, 5)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(2*i + 3))
	}
	for _, c := range []struct {
		leaves []*big.Int
		skip   bool
		nodes  int64
	}{
		{leaves, true, 10},  // 2 + 3 + 5: the top pair, 3 with one promoted, 5
		{leaves, false, 11}, // the root above them
		{leaves[:1], true, 0},
	} {
		tree, err := Build(context.Background(), c.leaves, Options{SkipRoot: c.skip})
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(context.Context, *Tree, *big.Int, Options) ([]*big.Int, error){
			"Reduce": Reduce, "Prefixes": Prefixes, "Suffixes": Suffixes,
		} {
			for _, workers := range []int{1, 3} {
				var nodes atomic.Int64
				opt := Options{Workers: workers, OnNode: func() { nodes.Add(1) }}
				if _, err := run(context.Background(), tree, big.NewInt(1000), opt); err != nil {
					t.Fatal(err)
				}
				if nodes.Load() != c.nodes {
					t.Errorf("%s over %d leaves (skip=%v, workers=%d): %d nodes, want %d",
						name, len(c.leaves), c.skip, workers, nodes.Load(), c.nodes)
				}
			}
		}
	}
}

// TestDescentsCanceled: a canceled context stops a descent with its
// error, inline and on the pool.
func TestDescentsCanceled(t *testing.T) {
	leaves := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7)}
	tree, err := Build(context.Background(), leaves, Options{SkipRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		opt := Options{Workers: workers}
		if _, err := Reduce(ctx, tree, big.NewInt(11), opt); err == nil {
			t.Fatalf("workers=%d: Reduce ignored a canceled context", workers)
		}
		if _, err := Prefixes(ctx, tree, big.NewInt(11), opt); err == nil {
			t.Fatalf("workers=%d: Prefixes ignored a canceled context", workers)
		}
		if _, err := Suffixes(ctx, tree, big.NewInt(11), opt); err == nil {
			t.Fatalf("workers=%d: Suffixes ignored a canceled context", workers)
		}
	}
}

// FuzzDescentsMatchNaive cross-checks the three descents against
// math/big on arbitrary small leaf sets: byte 0 picks 1-9 leaves, each
// following byte pair one 16-bit leaf (+1, so never zero; even leaves,
// ones and repeats included), and the remaining bytes are x,
// big-endian. Small leaves share factors and divide each other
// constantly, and 1-9 leaves reach the one-leaf tree, the lone top pair
// and promoted odd nodes.
func FuzzDescentsMatchNaive(f *testing.F) {
	f.Add([]byte{0, 0, 14, 1, 0})                          // one leaf
	f.Add([]byte{1, 0, 14, 0, 20, 7, 7})                   // a top pair
	f.Add([]byte{2, 0, 14, 0, 14, 0, 0, 9})                // duplicates and 1
	f.Add([]byte{3, 0, 2, 0, 4, 0, 14, 0, 34, 255, 255})   // 15 divides 3·5·35
	f.Add([]byte{8, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // promoted nodes, no x
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 1 + int(data[0])%9
		var ms []*big.Int
		i := 1
		for ; i+1 < len(data) && len(ms) < m; i += 2 {
			ms = append(ms, big.NewInt(int64(data[i])<<8|int64(data[i+1])+1))
		}
		if len(ms) == 0 {
			return
		}
		x := new(big.Int).SetBytes(data[i:])
		checkDescents(t, fmt.Sprint(ms), ms, []*big.Int{x})
	})
}
