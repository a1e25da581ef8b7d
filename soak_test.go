package bulkgcd

// Soak tests: wider randomized campaigns over the whole stack. They run
// in a few seconds and are skipped under -short.

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"testing"
)

// TestSoakPublicGCD hammers the public GCD with structured inputs:
// powers of two, planted factors, huge quotients, near-equal values.
func TestSoakPublicGCD(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	r := rand.New(rand.NewSource(1001))
	randN := func(bits int) *big.Int {
		v := new(big.Int)
		for v.BitLen() < bits {
			v.Lsh(v, 32)
			v.Or(v, new(big.Int).SetUint64(uint64(r.Uint32())))
		}
		return v
	}
	for i := 0; i < 1500; i++ {
		var x, y *big.Int
		switch i % 5 {
		case 0: // plain random
			x, y = randN(1+r.Intn(700)), randN(1+r.Intn(700))
		case 1: // shared structured factor with trailing zeros
			g := new(big.Int).Lsh(randN(1+r.Intn(100)), uint(r.Intn(40)))
			x = new(big.Int).Mul(randN(1+r.Intn(200)), g)
			y = new(big.Int).Mul(randN(1+r.Intn(200)), g)
		case 2: // huge quotient: tiny y
			x = randN(500 + r.Intn(200))
			y = big.NewInt(int64(1 + r.Intn(1000)))
		case 3: // near-equal
			x = randN(400)
			y = new(big.Int).Add(x, big.NewInt(int64(r.Intn(64))))
		default: // powers of two
			x = new(big.Int).Lsh(big.NewInt(1), uint(r.Intn(300)))
			y = new(big.Int).Lsh(big.NewInt(1), uint(r.Intn(300)))
		}
		want := new(big.Int).GCD(nil, nil, x, y)
		if got := GCD(x, y); got.Cmp(want) != 0 {
			t.Fatalf("case %d: GCD(%v, %v) = %v, want %v", i, x, y, got, want)
		}
	}
}

// TestSoakAttackRandomCorpora runs the full attack over many random weak
// corpora of varying shapes, verifying ground truth every time.
func TestSoakAttackRandomCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	r := rand.New(rand.NewSource(1002))
	for round := 0; round < 12; round++ {
		count := 6 + r.Intn(20)
		weak := r.Intn(count/2 + 1)
		bits := 128
		moduli, planted, err := GenerateWeakCorpus(count, bits, weak, int64(3000+round))
		if err != nil {
			t.Fatal(err)
		}
		alg := Algorithms[r.Intn(len(Algorithms))]
		noEarly := r.Intn(2) == 0
		eng := EnginePairs
		if weak > 0 && r.Intn(3) == 0 {
			eng, alg = EngineBatch, Approximate
		}
		opts := []Option{WithAlgorithm(alg), WithEngine(eng)}
		if noEarly {
			opts = append(opts, WithoutEarlyTermination())
		}
		rep, err := New(opts...).Run(context.Background(), moduli)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]*big.Int{}
		for _, pp := range planted {
			want[pp.I] = pp.P
			want[pp.J] = pp.P
		}
		if len(rep.Broken) != len(want) {
			t.Fatalf("round %d (%v, %v, no-early=%v): broke %d keys, want %d",
				round, eng, alg, noEarly, len(rep.Broken), len(want))
		}
		for _, bk := range rep.Broken {
			p, ok := want[bk.Index]
			if !ok {
				t.Fatalf("round %d: unexpected break at %d", round, bk.Index)
			}
			if bk.P.Cmp(p) != 0 && bk.Q.Cmp(p) != 0 {
				t.Fatalf("round %d: key %d broken without planted prime", round, bk.Index)
			}
			if new(big.Int).Mul(bk.P, bk.Q).Cmp(bk.N) != 0 {
				t.Fatalf("round %d: key %d factorization inconsistent", round, bk.Index)
			}
		}
	}
}

// TestSoakCorpusFormats round-trips random corpora through both the hex
// and in-memory paths at many shapes.
func TestSoakCorpusFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	r := rand.New(rand.NewSource(1003))
	for round := 0; round < 10; round++ {
		count := 1 + r.Intn(30)
		bits := 64 * (1 + r.Intn(8))
		moduli, _, err := GenerateWeakCorpus(count, bits, 0, int64(4000+round))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCorpus(&buf, moduli, "soak"); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCorpus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != count {
			t.Fatalf("round %d: %d moduli after round trip", round, len(got))
		}
		for i := range got {
			if got[i].Cmp(moduli[i]) != 0 {
				t.Fatalf("round %d: modulus %d mismatch", round, i)
			}
		}
	}
}
