package attack

import (
	"math/big"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/rsakey"
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

// TestAttackBreaksPlantedKeys is the headline end-to-end property: every
// modulus participating in a planted weak pair is factored, the factors
// are the true primes, and the recovered private exponents decrypt.
func TestAttackBreaksPlantedKeys(t *testing.T) {
	c := weakCorpus(t, 20, 128, 3, 42)
	rep, err := Run(c.Moduli(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moduli != 20 {
		t.Fatalf("Moduli = %d", rep.Moduli)
	}
	wantBroken := map[int]bool{}
	for _, pp := range c.Planted {
		wantBroken[pp.I] = true
		wantBroken[pp.J] = true
	}
	if len(rep.Broken) != len(wantBroken) {
		t.Fatalf("broke %d keys, want %d", len(rep.Broken), len(wantBroken))
	}
	for _, bk := range rep.Broken {
		if !wantBroken[bk.Index] {
			t.Fatalf("unexpected broken key %d", bk.Index)
		}
		key := c.Keys[bk.Index]
		pq := map[string]bool{key.P.String(): true, key.Q.String(): true}
		if !pq[bk.P.String()] || !pq[bk.Q.String()] {
			t.Fatalf("key %d: wrong factors", bk.Index)
		}
		if bk.D == nil {
			t.Fatalf("key %d: private exponent not recovered", bk.Index)
		}
		if bk.D.Cmp(key.D) != 0 {
			t.Fatalf("key %d: wrong private exponent", bk.Index)
		}
		// Prove the break: decrypt a fresh ciphertext.
		m := big.NewInt(31337)
		ct := new(big.Int).Exp(m, big.NewInt(rsakey.DefaultExponent), bk.N)
		if new(big.Int).Exp(ct, bk.D, bk.N).Cmp(m) != 0 {
			t.Fatalf("key %d: recovered key does not decrypt", bk.Index)
		}
	}
	if len(rep.Duplicates) != 0 {
		t.Fatalf("unexpected duplicates: %v", rep.Duplicates)
	}
}

// TestAttackAllAlgorithmsAgree: the report must be identical whichever GCD
// algorithm drives it.
func TestAttackAllAlgorithmsAgree(t *testing.T) {
	c := weakCorpus(t, 14, 128, 2, 43)
	var base *Report
	for _, alg := range gcd.Algorithms {
		opt := DefaultOptions()
		opt.Algorithm = alg
		rep, err := Run(c.Moduli(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = rep
			continue
		}
		if len(rep.Broken) != len(base.Broken) {
			t.Fatalf("%v: %d broken, baseline %d", alg, len(rep.Broken), len(base.Broken))
		}
		for i := range rep.Broken {
			if rep.Broken[i].Index != base.Broken[i].Index ||
				rep.Broken[i].P.Cmp(base.Broken[i].P) != 0 {
				t.Fatalf("%v: broken key %d differs", alg, i)
			}
		}
	}
}

// TestAttackDetectsDuplicates: identical moduli are reported as duplicate,
// not factored.
func TestAttackDetectsDuplicates(t *testing.T) {
	c := weakCorpus(t, 6, 128, 0, 44)
	moduli := c.Moduli()
	moduli = append(moduli, moduli[1])
	rep, err := Run(moduli, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Broken) != 0 {
		t.Fatalf("duplicates wrongly factored: %+v", rep.Broken)
	}
	if len(rep.Duplicates) != 1 || rep.Duplicates[0] != [2]int{1, 6} {
		t.Fatalf("duplicates = %v, want [[1 6]]", rep.Duplicates)
	}
}

// TestAttackSharedPrimeAcrossThreeKeys: a prime shared by three moduli
// breaks all three (each discovered through some pair).
func TestAttackSharedPrimeAcrossThreeKeys(t *testing.T) {
	c := weakCorpus(t, 4, 128, 0, 45)
	p := c.Keys[0].P // reuse key 0's prime in two extra keys
	var moduli []*mpnat.Nat
	moduli = append(moduli, c.Moduli()...)
	for seed := int64(100); seed < 102; seed++ {
		k2, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 1, Bits: 128, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := k2.Keys[0].P
		moduli = append(moduli, mpnat.FromBig(new(big.Int).Mul(p, q)))
	}
	rep, err := Run(moduli, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, bk := range rep.Broken {
		got[bk.Index] = true
		if bk.P.Cmp(p) != 0 && bk.Q.Cmp(p) != 0 {
			t.Fatalf("key %d factored without the shared prime", bk.Index)
		}
	}
	for _, idx := range []int{0, 4, 5} {
		if !got[idx] {
			t.Fatalf("key %d not broken (broken: %v)", idx, got)
		}
	}
}

// TestAttackCleanCorpus: nothing is broken when nothing is weak.
func TestAttackCleanCorpus(t *testing.T) {
	c := weakCorpus(t, 10, 128, 0, 46)
	rep, err := Run(c.Moduli(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Broken) != 0 || len(rep.Duplicates) != 0 {
		t.Fatalf("clean corpus produced findings: %+v", rep)
	}
	if rep.Bulk.Pairs != 45 {
		t.Fatalf("pairs = %d, want 45", rep.Bulk.Pairs)
	}
}

// TestAttackDefaultExponentFallback: a zero exponent falls back to 65537.
func TestAttackDefaultExponentFallback(t *testing.T) {
	c := weakCorpus(t, 6, 128, 1, 47)
	opt := DefaultOptions()
	opt.Exponent = 0
	rep, err := Run(c.Moduli(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range rep.Broken {
		if bk.D == nil {
			t.Fatal("exponent fallback failed to recover d")
		}
	}
}

func TestAttackErrors(t *testing.T) {
	if _, err := Run([]*mpnat.Nat{mpnat.New(15)}, DefaultOptions()); err == nil {
		t.Error("single-modulus corpus accepted")
	}
}

// TestAttackBatchMode: the batch-GCD engine produces the same broken-key
// set as the all-pairs engine.
func TestAttackBatchMode(t *testing.T) {
	c := weakCorpus(t, 18, 128, 3, 48)
	pairwise, err := Run(c.Moduli(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Engine = engine.Batch
	batch, err := Run(c.Moduli(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Broken) != len(pairwise.Broken) {
		t.Fatalf("batch broke %d keys, all-pairs %d", len(batch.Broken), len(pairwise.Broken))
	}
	for i := range batch.Broken {
		b, p := batch.Broken[i], pairwise.Broken[i]
		if b.Index != p.Index || b.P.Cmp(p.P) != 0 || b.Q.Cmp(p.Q) != 0 {
			t.Fatalf("broken key %d differs between engines", i)
		}
		if b.D == nil || b.D.Cmp(p.D) != 0 {
			t.Fatalf("broken key %d: private exponents differ", i)
		}
		if b.FoundWith != -1 {
			t.Fatalf("batch finding has a revealing pair index %d", b.FoundWith)
		}
	}
}

// TestAttackBatchDuplicates: batch mode reports duplicates like the
// pairwise mode does. Asked for 16 workers, its widest pool (the leaf
// pass, one unit per modulus) runs 7, and the report says so.
func TestAttackBatchDuplicates(t *testing.T) {
	c := weakCorpus(t, 6, 128, 0, 49)
	moduli := append(c.Moduli(), c.Moduli()[3])
	opt := DefaultOptions()
	opt.Engine = engine.Batch
	opt.Workers = 16
	rep, err := Run(moduli, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bulk.Workers != len(moduli) {
		t.Fatalf("Workers = %d, want %d", rep.Bulk.Workers, len(moduli))
	}
	if len(rep.Broken) != 0 {
		t.Fatalf("duplicates wrongly factored: %+v", rep.Broken)
	}
	if len(rep.Duplicates) != 1 || rep.Duplicates[0] != [2]int{3, 6} {
		t.Fatalf("duplicates = %v, want [[3 6]]", rep.Duplicates)
	}
}

// TestAttackBatchValidation covers the error paths of batch mode.
func TestAttackBatchValidation(t *testing.T) {
	opt := DefaultOptions()
	opt.Engine = engine.Batch
	if _, err := Run([]*mpnat.Nat{mpnat.New(15)}, opt); err == nil {
		t.Error("single modulus accepted")
	}
	if _, err := Run([]*mpnat.Nat{mpnat.New(15), {}}, opt); err == nil {
		t.Error("zero modulus accepted")
	}
}
