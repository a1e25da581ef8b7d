package bulkgcd

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGCDMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(400))))
		y := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(400))))
		want := new(big.Int).GCD(nil, nil, x, y)
		if got := GCD(x, y); got.Cmp(want) != 0 {
			t.Fatalf("GCD(%v,%v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestGCDHandlesSignsZerosAndEvens(t *testing.T) {
	cases := []struct{ x, y, want int64 }{
		{0, 0, 0},
		{0, 12, 12},
		{12, 0, 12},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{1 << 20, 1 << 10, 1 << 10},
		{48, 36, 12},
		{1043915, 768955, 5},
	}
	for _, c := range cases {
		if got := GCD(big.NewInt(c.x), big.NewInt(c.y)); got.Int64() != c.want {
			t.Errorf("GCD(%d,%d) = %v, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestGCDWithAllAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 300))
		y := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 300))
		want := new(big.Int).GCD(nil, nil, x, y)
		for _, alg := range Algorithms {
			got, st, err := GCDWith(alg, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%v wrong", alg)
			}
			if x.Sign() != 0 && y.Sign() != 0 && st.Iterations == 0 {
				t.Fatalf("%v reported zero iterations", alg)
			}
		}
	}
}

func TestGCDWithUnknownAlgorithm(t *testing.T) {
	if _, _, err := GCDWith(Algorithm(99), big.NewInt(3), big.NewInt(5)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestGCDQuickProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		x := new(big.Int).SetUint64(a)
		y := new(big.Int).SetUint64(b)
		g := GCD(x, y)
		if a == 0 && b == 0 {
			return g.Sign() == 0
		}
		// g divides both and matches the stdlib.
		want := new(big.Int).GCD(nil, nil, x, y)
		return g.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmNamesAndLetters(t *testing.T) {
	if Approximate.String() != "Approximate" || Approximate.Letter() != "E" {
		t.Error("Approximate metadata wrong")
	}
	if Original.Letter() != "A" || Binary.Letter() != "C" {
		t.Error("letters wrong")
	}
	if Algorithm(99).Letter() != "?" || Algorithm(99).String() != "Algorithm(99)" {
		t.Error("out-of-range handling wrong")
	}
	var zero Algorithm
	if zero != Approximate {
		t.Error("zero value is not Approximate")
	}
}

func TestEndToEndAttack(t *testing.T) {
	moduli, planted, err := GenerateWeakCorpus(16, 128, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New().Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 16*15/2 {
		t.Fatalf("pairs = %d", rep.Pairs)
	}
	if len(rep.Broken) != 4 {
		t.Fatalf("broke %d keys, want 4", len(rep.Broken))
	}
	wantIdx := map[int]*big.Int{}
	for _, pp := range planted {
		wantIdx[pp.I] = pp.P
		wantIdx[pp.J] = pp.P
	}
	for _, bk := range rep.Broken {
		p, ok := wantIdx[bk.Index]
		if !ok {
			t.Fatalf("unexpected broken index %d", bk.Index)
		}
		if bk.P.Cmp(p) != 0 && bk.Q.Cmp(p) != 0 {
			t.Fatalf("key %d factored without planted prime", bk.Index)
		}
		if bk.D == nil {
			t.Fatalf("key %d: no private exponent", bk.Index)
		}
		if new(big.Int).Mul(bk.P, bk.Q).Cmp(bk.N) != 0 {
			t.Fatalf("key %d: P*Q != N", bk.Index)
		}
	}
}

func TestAttackOptionsVariants(t *testing.T) {
	moduli, _, err := GenerateWeakCorpus(10, 128, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		opts := []Option{WithAlgorithm(alg), WithWorkers(2)}
		if alg == Binary {
			opts = append(opts, WithoutEarlyTermination())
		}
		rep, err := New(opts...).Run(context.Background(), moduli)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Broken) != 2 {
			t.Fatalf("%v: broke %d keys, want 2", alg, len(rep.Broken))
		}
	}
}

func TestFindSharedPrimesValidation(t *testing.T) {
	ctx := context.Background()
	odd := big.NewInt(15)
	if _, err := New().Run(ctx, []*big.Int{odd, big.NewInt(4)}); err == nil {
		t.Error("even modulus accepted")
	}
	if _, err := New().Run(ctx, []*big.Int{odd, big.NewInt(-3)}); err == nil {
		t.Error("negative modulus accepted")
	}
	if _, err := New().Run(ctx, []*big.Int{odd, nil}); err == nil {
		t.Error("nil modulus accepted")
	}
	if _, err := New(WithAlgorithm(Algorithm(9))).Run(ctx, []*big.Int{odd, odd}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestCorpusRoundTripPublicAPI(t *testing.T) {
	moduli, _, err := GenerateWeakCorpus(6, 64, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, moduli, "public API round trip"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range moduli {
		if got[i].Cmp(moduli[i]) != 0 {
			t.Fatalf("modulus %d mismatch", i)
		}
	}
	if err := WriteCorpus(&buf, []*big.Int{nil}, ""); err == nil {
		t.Error("nil modulus accepted by WriteCorpus")
	}
}

func TestGenerateWeakCorpusValidation(t *testing.T) {
	if _, _, err := GenerateWeakCorpus(0, 64, 0, 1); err == nil {
		t.Error("count 0 accepted")
	}
	if _, _, err := GenerateWeakCorpus(4, 64, 3, 1); err == nil {
		t.Error("too many weak pairs accepted")
	}
}

// TestBatchGCDOption: the public batch-GCD engine finds the same keys as
// the all-pairs default.
func TestBatchGCDOption(t *testing.T) {
	moduli, _, err := GenerateWeakCorpus(14, 128, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	pairwise, err := New().Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := New(WithEngine(EngineBatch)).Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Broken) != len(pairwise.Broken) {
		t.Fatalf("batch broke %d, pairwise %d", len(batch.Broken), len(pairwise.Broken))
	}
	for i := range batch.Broken {
		if batch.Broken[i].Index != pairwise.Broken[i].Index ||
			batch.Broken[i].P.Cmp(pairwise.Broken[i].P) != 0 {
			t.Fatalf("engines disagree on broken key %d", i)
		}
	}
}

func TestConstantTimeGCD(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for i := 0; i < 200; i++ {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(400))))
		y := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(400))))
		want := new(big.Int).GCD(nil, nil, x, y)
		if got := ConstantTimeGCD(x, y); got.Cmp(want) != 0 {
			t.Fatalf("ConstantTimeGCD(%v,%v) = %v, want %v", x, y, got, want)
		}
	}
	cases := []struct{ x, y, want int64 }{
		{0, 0, 0}, {0, 12, 12}, {12, 0, 12}, {-12, 18, 6}, {48, 36, 12}, {1043915, 768955, 5},
	}
	for _, c := range cases {
		if got := ConstantTimeGCD(big.NewInt(c.x), big.NewInt(c.y)); got.Int64() != c.want {
			t.Errorf("ConstantTimeGCD(%d,%d) = %v, want %d", c.x, c.y, got, c.want)
		}
	}
}
