package subprod

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"
)

// naiveCofactors returns Π_{j≠i} n_j mod n_i for every leaf, in math/big.
func naiveCofactors(ms []*big.Int) []*big.Int {
	out := make([]*big.Int, len(ms))
	for i, n := range ms {
		p := big.NewInt(1)
		for j, m := range ms {
			if j != i {
				p.Mul(p, m)
			}
		}
		out[i] = p.Mod(p, n)
	}
	return out
}

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

// checkDescents builds ms's tree with and without SkipRoot at Workers 1
// and 3 and compares the three descents with the naive residues.
func checkDescents(t *testing.T, label string, ms []*big.Int, xs []*big.Int) {
	t.Helper()
	ctx := context.Background()
	wantZ := naiveCofactors(ms)
	for _, skip := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			opt := Options{Workers: workers, SkipRoot: skip}
			tree, err := Build(ctx, ms, opt)
			if err != nil {
				t.Fatal(err)
			}
			zs, err := Cofactors(ctx, tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(zs) != len(ms) {
				t.Fatalf("%s skip=%v workers=%d: %d cofactors for %d leaves", label, skip, workers, len(zs), len(ms))
			}
			for i := range ms {
				if zs[i].Cmp(wantZ[i]) != 0 {
					t.Fatalf("%s skip=%v workers=%d: leaf %d (n=%v) cofactor %v, want %v",
						label, skip, workers, i, ms[i], zs[i], wantZ[i])
				}
			}
			for _, x := range xs {
				for _, d := range []struct {
					name  string
					run   func(context.Context, *Tree, *big.Int, Options) ([]*big.Int, error)
					naive func([]*big.Int, *big.Int) []*big.Int
				}{
					{"Reduce", Reduce, naiveReduce},
					{"Prefixes", Prefixes, naivePrefixes},
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

// TestDescentsMatchNaive: Cofactors equals Π_{j≠i} n_j mod n_i, Reduce
// equals x mod n_i and Prefixes equals x·Π_{j<i} n_j mod n_i at every
// leaf, on trees with and without their root
// and at Workers 1 and 3. The sizes cover a single leaf, a lone top
// pair, and promoted odd nodes at one or several levels. Each size runs
// on random leaves and on leaves planted with a 1, a duplicate pair and
// a leaf dividing the product of the others (its cofactor is 0); x runs
// over 0, a value below every leaf, the product of the leaves times a
// random factor, and a random value above them.
func TestDescentsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 65} {
		for _, planted := range []bool{false, true} {
			ms := make([]*big.Int, m)
			for i := range ms {
				ms[i] = randBig(r, 64+r.Intn(65))
			}
			var div *big.Int
			if planted {
				ms[min(1, m-1)] = big.NewInt(1)
				if m >= 3 {
					ms[2] = new(big.Int).Set(ms[0])
				}
				if m >= 5 {
					div = new(big.Int).Mul(ms[0], ms[4])
					ms[3] = div
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
			if div != nil {
				tree, err := Build(context.Background(), ms, Options{SkipRoot: true})
				if err != nil {
					t.Fatal(err)
				}
				zs, err := Cofactors(context.Background(), tree, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range ms {
					if n == div && zs[i].Sign() != 0 {
						t.Fatalf("%s: the leaf dividing the others has cofactor %v", label, zs[i])
					}
				}
			}
		}
	}
}

// TestDescentHooks: a descent wraps each tree level in OnLevel, top
// first, with the level index and its node count, and calls OnNode once
// per residue, promoted odd nodes included. A one-leaf tree has no
// descent level and runs no hook.
func TestDescentHooks(t *testing.T) {
	leaves := make([]*big.Int, 5)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(2*i + 3))
	}
	for _, c := range []struct {
		leaves []*big.Int
		skip   bool
		levels string
		nodes  int64
	}{
		{leaves, true, "[2:2 1:3 0:5]", 10},
		{leaves, false, "[3:1 2:2 1:3 0:5]", 11},
		{leaves[:1], true, "[]", 0},
	} {
		tree, err := Build(context.Background(), c.leaves, Options{SkipRoot: c.skip})
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(Options) error{
			"Cofactors": func(opt Options) error { _, err := Cofactors(context.Background(), tree, opt); return err },
			"Reduce": func(opt Options) error {
				_, err := Reduce(context.Background(), tree, big.NewInt(1000), opt)
				return err
			},
			"Prefixes": func(opt Options) error {
				_, err := Prefixes(context.Background(), tree, big.NewInt(1000), opt)
				return err
			},
		} {
			var levels []string
			var nodes atomic.Int64
			err := run(Options{
				OnLevel: func(level, n int, run func() error) error {
					levels = append(levels, fmt.Sprintf("%d:%d", level, n))
					return run()
				},
				OnNode: func() { nodes.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(levels); got != c.levels || nodes.Load() != c.nodes {
				t.Errorf("%s over %d leaves (skip=%v): levels %s and %d nodes, want %s and %d",
					name, len(c.leaves), c.skip, got, nodes.Load(), c.levels, c.nodes)
			}
		}
	}
}

// TestDescentsCanceled: a canceled context stops a descent with its
// error.
func TestDescentsCanceled(t *testing.T) {
	leaves := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7)}
	tree, err := Build(context.Background(), leaves, Options{SkipRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Cofactors(ctx, tree, Options{}); err == nil {
		t.Fatal("Cofactors ignored a canceled context")
	}
	if _, err := Reduce(ctx, tree, big.NewInt(11), Options{}); err == nil {
		t.Fatal("Reduce ignored a canceled context")
	}
	if _, err := Prefixes(ctx, tree, big.NewInt(11), Options{}); err == nil {
		t.Fatal("Prefixes ignored a canceled context")
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
