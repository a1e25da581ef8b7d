package batchgcd

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/subprod"
)

func weakCorpus(t testing.TB, count, bits, weak int, seed int64) *rsakey.Corpus {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: bits, WeakPairs: weak, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bigModuli(c *rsakey.Corpus) []*big.Int {
	out := make([]*big.Int, len(c.Keys))
	for i, k := range c.Keys {
		out[i] = k.N.ToBig()
	}
	return out
}

// newTree builds the engine's product tree over ms on one worker.
func newTree(t *testing.T, ms []*big.Int) *subprod.Tree {
	t.Helper()
	tree, err := buildTree(context.Background(), ms, 1, newTracker(0, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestProductTree: the engine's tree stops at the root's two children,
// since the descent never reads the root.
func TestProductTree(t *testing.T) {
	ms := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7), big.NewInt(11), big.NewInt(13)}
	tree := newTree(t, ms)
	// Levels: 5 -> 3 -> 2, and no root above the top pair.
	wantLens := []int{5, 3, 2}
	if len(tree.Levels) != len(wantLens) {
		t.Fatalf("depth %d, want %d", len(tree.Levels), len(wantLens))
	}
	for i, w := range wantLens {
		if len(tree.Levels[i]) != w {
			t.Fatalf("level %d has %d nodes, want %d", i, len(tree.Levels[i]), w)
		}
	}
	top := tree.Levels[len(tree.Levels)-1]
	if a, b := top[0].Int64(), top[1].Int64(); a != 3*5*7*11 || b != 13 {
		t.Fatalf("top pair = %d, %d, want 1155 (15*77) and the promoted 13", a, b)
	}
}

// remainderTree is the mod-n^2 remainder tree that the descents
// replaced, kept as their oracle. It pushes the root product down a full
// tree (one built without SkipRoot), reducing modulo the square of each
// node, and returns the leaf remainders r_i = P mod n_i^2, from which
// (P/n_i) mod n_i = r_i / n_i.
func remainderTree(ctx context.Context, t *subprod.Tree, workers int, tr *tracker) ([]*big.Int, error) {
	depth := len(t.Levels)
	cur := []*big.Int{t.Root()}
	type remScratch struct{ sq, quo big.Int }
	scratch := make([]remScratch, workers)
	for lvl := depth - 2; lvl >= 0; lvl-- {
		nodes := t.Levels[lvl]
		next := make([]*big.Int, len(nodes))
		parent := cur
		if err := tr.phase("remainder", len(nodes), tr.remainderH, func() error {
			return engine.Run(ctx, len(nodes), engine.PoolOptions{Workers: workers, Metrics: tr.metrics}, func(i, w int) {
				s := &scratch[w]
				s.sq.Mul(nodes[i], nodes[i])
				rem := new(big.Int)
				s.quo.QuoRem(parent[i/2], &s.sq, rem)
				next[i] = rem
				tr.tick()
			})
		}); err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// descentCorpus returns m odd moduli of 64 to 128 bits. When planted it
// also holds, as far as m allows, a modulus equal to 1, a duplicate
// pair, and the product of two other moduli, shuffled into random tree
// positions. That product divides the product of the rest, so its
// residue is 0; it is returned as div (nil when m < 4).
func descentCorpus(r *rand.Rand, m int, planted bool) (ms []*big.Int, div *big.Int) {
	ms = make([]*big.Int, m)
	for i := range ms {
		v := new(big.Int).Rand(r, new(big.Int).Lsh(one, uint(64+r.Intn(65))))
		ms[i] = v.SetBit(v, 0, 1)
	}
	if !planted {
		return ms, nil
	}
	ms[min(1, m-1)] = big.NewInt(1)
	if m >= 3 {
		ms[2] = new(big.Int).Set(ms[0])
	}
	if m >= 4 {
		// n_0*n_4, or n_0 squared (n_0 times its duplicate) at m = 4.
		f := ms[2]
		if m >= 5 {
			f = ms[4]
		}
		div = new(big.Int).Mul(ms[0], f)
		ms[3] = div
	}
	r.Shuffle(m, func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms, div
}

// squaresOracle returns g_i = gcd(n_i, (P mod n_i^2)/n_i) for every
// modulus, from remainderTree over a full product tree.
func squaresOracle(t *testing.T, ms []*big.Int) []*big.Int {
	t.Helper()
	ctx := context.Background()
	full, err := subprod.Build(ctx, ms, subprod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rems, err := remainderTree(ctx, full, 1, newTracker(0, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*big.Int, len(ms))
	for i, n := range ms {
		// remainderTree returns a one-node tree's root as is, so reduce
		// mod n_i^2 here: P mod 1 is 0, not 1.
		z := new(big.Int).Mod(rems[i], new(big.Int).Mul(n, n))
		z.Quo(z, n)
		out[i] = z.GCD(nil, nil, z, n)
	}
	return out
}

// checkOracle runs SharedFactorsContext on ms at Workers 1 and 3 and
// compares every g_i with the squares oracle's.
func checkOracle(t *testing.T, label string, ms []*big.Int) {
	t.Helper()
	want := squaresOracle(t, ms)
	for _, workers := range []int{1, 3} {
		gs, err := SharedFactorsContext(context.Background(), ms, Config{Config: engine.Config{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != len(ms) {
			t.Fatalf("%s workers=%d: %d results for %d moduli", label, workers, len(gs), len(ms))
		}
		for i, n := range ms {
			if gs[i].Cmp(want[i]) != 0 {
				t.Fatalf("%s workers=%d: modulus %d (n=%v): g = %v, oracle %v", label, workers, i, n, gs[i], want[i])
			}
		}
	}
}

// TestDescentMatchesSquaresOracle: every g_i equals the mod-n^2
// oracle's gcd(n_i, (P mod n_i^2)/n_i). The sizes cover a single node
// (m = 1), a lone top pair (m = 2), and promoted odd nodes at one or
// several levels (3, 5, 7, 9, 33, 65, 513). The planted divisor of the
// others gets g = n.
func TestDescentMatchesSquaresOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 65, 513} {
		for _, planted := range []bool{false, true} {
			ms, div := descentCorpus(r, m, planted)
			checkOracle(t, fmt.Sprintf("m=%d planted=%v", m, planted), ms)
			if div == nil {
				continue
			}
			gs, err := SharedFactorsContext(context.Background(), ms, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range ms {
				if n == div && gs[i].Cmp(n) != 0 {
					t.Fatalf("m=%d: the planted divisor of the others has g = %v", m, gs[i])
				}
			}
		}
	}
}

// prefixHits counts the moduli that share a prime with an earlier one,
// by the definition.
func prefixHits(ms []*big.Int) int {
	hits := 0
	prod := big.NewInt(1)
	for _, n := range ms {
		if new(big.Int).GCD(nil, nil, n, prod).Cmp(one) != 0 {
			hits++
		}
		prod.Mul(prod, n)
	}
	return hits
}

// TestSharedFactorsDensities: on 257 moduli with 0%, 2%, 25%, 50% and
// 100% of the keys sharing a prime, plus the fixed plants of
// densityCorpus, every g_i equals the squares oracle's at Workers 1 and
// 3. The densities fall on both sides of the dense guard (4|S| > m), so
// both ways of building the candidate set run.
func TestSharedFactorsDensities(t *testing.T) {
	const m = 257
	r := rand.New(rand.NewSource(27))
	ps := randomPrimes(r, 2*m, 64)
	sides := map[bool]bool{}
	for _, frac := range densities {
		ms := densityCorpus(r, ps, frac)
		hits := prefixHits(ms)
		sides[dense(hits, m)] = true
		label := fmt.Sprintf("density %.0f%% (%d hits, dense=%v)", 100*frac, hits, dense(hits, m))
		t.Log(label)
		checkOracle(t, label, ms)
	}
	if !sides[false] || !sides[true] {
		t.Fatalf("densities cover one side of the dense guard only: %v", sides)
	}
}

// TestTreeUnitsHandCounted pins the unit accounting by hand, since
// TestRunConfigProgress takes its expected total from treeUnits itself:
// no root multiplication, one residue per node below the root (promoted
// nodes included), one GCD per leaf. A serial run performs exactly those
// units, phase by phase.
func TestTreeUnitsHandCounted(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		m                         int
		mults, reductions, leaves int64
	}{
		{1, 0, 0, 1},     // the lone leaf is the root
		{2, 0, 2, 2},     // the leaves are the root's two children
		{3, 1, 5, 3},     // 3 -> 2
		{5, 3, 10, 5},    // 5 -> 3 -> 2
		{16, 14, 30, 16}, // 16 -> 8 -> 4 -> 2
	} {
		mults, reductions, leaves := treeUnits(c.m)
		if mults != c.mults || reductions != c.reductions || leaves != c.leaves {
			t.Errorf("treeUnits(%d) = (%d, %d, %d), want (%d, %d, %d)",
				c.m, mults, reductions, leaves, c.mults, c.reductions, c.leaves)
		}
		ms := make([]*big.Int, c.m)
		for i := range ms {
			ms[i] = big.NewInt(int64(2*i + 3))
		}
		tr := newTracker(0, Config{Config: engine.Config{Progress: func(int64, int64) {}}})
		tree, err := buildTree(ctx, ms, 1, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.done.Load(); got != c.mults {
			t.Errorf("m=%d: product tree made %d multiplications, want %d", c.m, got, c.mults)
		}
		if _, err := prefixes(ctx, tree, 1, tr); err != nil {
			t.Fatal(err)
		}
		if got := tr.done.Load() - c.mults; got != c.reductions {
			t.Errorf("m=%d: descent computed %d residues, want %d", c.m, got, c.reductions)
		}
		var last int64
		cfg := Config{Config: engine.Config{Workers: 1, Progress: func(done, _ int64) { last = done }}}
		if _, err := SharedFactorsContext(ctx, ms, cfg); err != nil {
			t.Fatal(err)
		}
		if want := c.mults + c.reductions + c.leaves; last != want {
			t.Errorf("m=%d: run ended at %d units, want %d", c.m, last, want)
		}
	}
}

func TestProductTreeSingle(t *testing.T) {
	tree := newTree(t, []*big.Int{big.NewInt(42)})
	if tree.Root().Int64() != 42 || len(tree.Levels) != 1 {
		t.Fatal("single-node tree wrong")
	}
}

// TestProductTreeValidation: the tree entry point rejects inputs the
// product tree is undefined for.
func TestProductTreeValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SharedFactorsContext(ctx, nil, Config{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := SharedFactorsContext(ctx, []*big.Int{big.NewInt(3), big.NewInt(0)}, Config{}); err == nil {
		t.Error("zero accepted")
	}
	if _, err := SharedFactorsContext(ctx, []*big.Int{big.NewInt(3), nil}, Config{}); err == nil {
		t.Error("nil accepted")
	}
}

// TestSharedFactorsAgainstNaive cross-checks the tree computation against
// the direct definition gcd(n_i, prod_{j != i} n_j mod n_i).
func TestSharedFactorsAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		// Small random odd values with frequent shared factors.
		m := 3 + r.Intn(12)
		ms := make([]*big.Int, m)
		for i := range ms {
			ms[i] = big.NewInt(int64(3+2*r.Intn(5000)) | 1)
		}
		got, err := SharedFactorsContext(context.Background(), ms, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			rest := big.NewInt(1)
			for j := range ms {
				if j != i {
					rest.Mul(rest, ms[j])
				}
			}
			rest.Mod(rest, ms[i])
			want := new(big.Int).GCD(nil, nil, rest, ms[i])
			if got[i].Cmp(want) != 0 {
				t.Fatalf("trial %d modulus %d: got %v, want %v (inputs %v)", trial, i, got[i], want, ms)
			}
		}
	}
}

// TestSharedFactorsRSA: the fastgcd use case - shared primes pop out,
// everything else reports 1.
func TestSharedFactorsRSA(t *testing.T) {
	c := weakCorpus(t, 16, 128, 3, 2)
	gs, err := SharedFactorsContext(context.Background(), bigModuli(c), Config{})
	if err != nil {
		t.Fatal(err)
	}
	weak := map[int]*big.Int{}
	for _, pp := range c.Planted {
		weak[pp.I] = pp.P
		weak[pp.J] = pp.P
	}
	for i, g := range gs {
		if p, isWeak := weak[i]; isWeak {
			if g.Cmp(p) != 0 {
				t.Errorf("modulus %d: g = %v, want planted prime", i, g)
			}
		} else if g.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("clean modulus %d: g = %v, want 1", i, g)
		}
	}
}

// TestRunResolvesDuplicates: identical moduli give g_i = n_i; Run must
// resolve them as duplicates, not factors.
func TestRunResolvesDuplicates(t *testing.T) {
	c := weakCorpus(t, 5, 128, 0, 3)
	ms := bigModuli(c)
	ms = append(ms, new(big.Int).Set(ms[2]))
	findings, err := RunContext(context.Background(), ms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (both duplicates)", len(findings))
	}
	for _, f := range findings {
		if f.DuplicateOf < 0 {
			t.Errorf("finding %d not marked duplicate", f.Index)
		}
		if f.Factor.Cmp(ms[f.Index]) != 0 {
			t.Errorf("duplicate finding %d has a proper factor", f.Index)
		}
	}
}

// TestRunResolvesDoublySharedModulus: a modulus both of whose primes are
// shared with different keys has g_i = n_i; Run must still extract a
// proper factor via the resolution pass.
func TestRunResolvesDoublySharedModulus(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := nextPrime(t, r, 64)
	q := nextPrime(t, r, 64)
	a := nextPrime(t, r, 64)
	b := nextPrime(t, r, 64)
	ms := []*big.Int{
		new(big.Int).Mul(p, q), // victim: both primes shared
		new(big.Int).Mul(p, a),
		new(big.Int).Mul(q, b),
		new(big.Int).Mul(nextPrime(t, r, 64), nextPrime(t, r, 64)),
	}
	findings, err := RunContext(context.Background(), ms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	byIdx := map[int]Finding{}
	for _, f := range findings {
		byIdx[f.Index] = f
	}
	for _, idx := range []int{0, 1, 2} {
		f, ok := byIdx[idx]
		if !ok {
			t.Fatalf("modulus %d not flagged", idx)
		}
		if f.Factor.Cmp(big.NewInt(1)) <= 0 || f.Factor.Cmp(ms[idx]) >= 0 {
			t.Fatalf("modulus %d: factor %v not proper", idx, f.Factor)
		}
		if new(big.Int).Mod(ms[idx], f.Factor).Sign() != 0 {
			t.Fatalf("modulus %d: factor does not divide", idx)
		}
	}
	if _, ok := byIdx[3]; ok {
		t.Fatal("clean modulus flagged")
	}
}

func nextPrime(t *testing.T, r *rand.Rand, bits int) *big.Int {
	t.Helper()
	return rsakey.GeneratePrime(r, bits)
}

// TestRunCleanCorpus: nothing flagged when nothing shared.
func TestRunCleanCorpus(t *testing.T) {
	c := weakCorpus(t, 12, 128, 0, 5)
	findings, err := RunContext(context.Background(), bigModuli(c), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean corpus produced %d findings", len(findings))
	}
}

// TestRunMatchesAllPairsOnWeakCorpus: both attack engines flag the same
// set of moduli with the same factors.
func TestRunMatchesAllPairsOnWeakCorpus(t *testing.T) {
	c := weakCorpus(t, 20, 128, 4, 6)
	findings, err := RunContext(context.Background(), bigModuli(c), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]*big.Int{}
	for _, pp := range c.Planted {
		want[pp.I] = pp.P
		want[pp.J] = pp.P
	}
	if len(findings) != len(want) {
		t.Fatalf("flagged %d moduli, want %d", len(findings), len(want))
	}
	for _, f := range findings {
		p, ok := want[f.Index]
		if !ok {
			t.Fatalf("unexpected finding at %d", f.Index)
		}
		if f.Factor.Cmp(p) != 0 {
			t.Fatalf("modulus %d: factor mismatch", f.Index)
		}
	}
}

// TestRunConfigWorkersIdentical: the Finding list is byte-identical for
// every pool size on a 1k-moduli corpus with planted shared primes and
// duplicated moduli — the contract that lets the attack pipeline default
// to the parallel path.
func TestRunConfigWorkersIdentical(t *testing.T) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 1000, Bits: 512, WeakPairs: 20, Seed: 7, Pseudo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := bigModuli(c)
	ms = append(ms, new(big.Int).Set(ms[10]), new(big.Int).Set(ms[11]), new(big.Int).Set(ms[10]))

	base, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("corpus with planted pairs produced no findings")
	}
	for _, w := range []int{2, 3, 4, 7, 8} {
		got, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: w}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d findings, workers=1 has %d", w, len(got), len(base))
		}
		for i := range got {
			g, b := got[i], base[i]
			if g.Index != b.Index || g.DuplicateOf != b.DuplicateOf || g.Factor.Cmp(b.Factor) != 0 {
				t.Fatalf("workers=%d: finding %d differs: %+v vs %+v", w, i, g, b)
			}
		}
	}
}

// TestRunConfigProgress asserts the engine.Config.Progress contract:
// done strictly increases and ends at the total, and the total counts
// every tree operation. Concurrent workers may drop stale updates, so
// the exact one-call-per-operation count is asserted only at workers=1.
func TestRunConfigProgress(t *testing.T) {
	c := weakCorpus(t, 33, 128, 2, 8) // odd count exercises promoted nodes
	ms := bigModuli(c)
	mults, reductions, leaves := treeUnits(len(ms))
	want := mults + reductions + leaves
	for _, w := range []int{1, 4} {
		var mu sync.Mutex
		var calls, lastDone int64
		cfg := Config{Config: engine.Config{Workers: w, Progress: func(done, total int64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done <= lastDone {
				t.Errorf("workers=%d: done went %d -> %d, want strictly increasing", w, lastDone, done)
			}
			lastDone = done
			if total != want {
				t.Errorf("workers=%d: total = %d, want %d", w, total, want)
			}
		}}}
		if _, err := RunContext(context.Background(), ms, cfg); err != nil {
			t.Fatal(err)
		}
		if lastDone != want {
			t.Fatalf("workers=%d: progress ended at %d, want %d", w, lastDone, want)
		}
		if w == 1 && calls != want {
			t.Fatalf("workers=1: %d calls, want one per operation (%d)", calls, want)
		}
	}
}

func BenchmarkBatchGCD128x512(b *testing.B) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 128, Bits: 512, Seed: 1, Pseudo: true})
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]*big.Int, len(c.Keys))
	for i, k := range c.Keys {
		ms[i] = k.N.ToBig()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SharedFactorsContext(context.Background(), ms, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
