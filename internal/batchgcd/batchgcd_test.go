package batchgcd

import (
	"context"
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

func TestProductTree(t *testing.T) {
	ms := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7), big.NewInt(11), big.NewInt(13)}
	tree := newTree(t, ms)
	if got := tree.Root().Int64(); got != 3*5*7*11*13 {
		t.Fatalf("product = %d", got)
	}
	// Levels: 5 -> 3 -> 2 -> 1.
	wantLens := []int{5, 3, 2, 1}
	if len(tree.Levels) != len(wantLens) {
		t.Fatalf("depth %d, want %d", len(tree.Levels), len(wantLens))
	}
	for i, w := range wantLens {
		if len(tree.Levels[i]) != w {
			t.Fatalf("level %d has %d nodes, want %d", i, len(tree.Levels[i]), w)
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
	for _, w := range []int{2, 4, 8} {
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
