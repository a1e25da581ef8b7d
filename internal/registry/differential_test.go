package registry

import (
	"context"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/rsakey"
)

// oracleBroken runs the batch-GCD oracle over moduli and returns the
// per-index g_i for every broken index.
func oracleBroken(t *testing.T, moduli []*big.Int) map[int]*big.Int {
	t.Helper()
	gs, err := batchgcd.SharedFactorsContext(context.Background(), moduli, batchgcd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	broken := make(map[int]*big.Int)
	for i, g := range gs {
		if g.Cmp(big.NewInt(1)) > 0 {
			broken[i] = g
		}
	}
	return broken
}

// diffBroken asserts the registry's folded per-key factors are
// byte-identical (hex-for-hex) to the oracle's.
func diffBroken(t *testing.T, r *Registry, oracle map[int]*big.Int) {
	t.Helper()
	got := r.Broken()
	if len(got) != len(oracle) {
		t.Fatalf("registry broke %d keys, oracle %d", len(got), len(oracle))
	}
	for _, bk := range got {
		want, ok := oracle[bk.Index]
		if !ok {
			t.Fatalf("registry broke index %d, oracle did not", bk.Index)
		}
		if bk.G.Text(16) != want.Text(16) {
			t.Fatalf("index %d: registry G=%s oracle g=%s", bk.Index, bk.G.Text(16), want.Text(16))
		}
	}
}

// weakModuli builds a deterministic weak corpus: semiprimes with planted
// shared primes plus injected duplicates, shuffled so submission order
// does not follow generation order.
func weakModuli(t *testing.T, count, bits, pairs int, seed int64) []*big.Int {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: bits, WeakPairs: pairs, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	moduli := make([]*big.Int, 0, count+count/8)
	for _, n := range c.Moduli() {
		moduli = append(moduli, n.ToBig())
	}
	// Duplicates: every 8th key resubmitted verbatim.
	for i := 0; i < count; i += 8 {
		moduli = append(moduli, new(big.Int).Set(moduli[i]))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(moduli), func(i, j int) { moduli[i], moduli[j] = moduli[j], moduli[i] })
	return moduli
}

// TestDifferentialStreamed: the full acceptance property — a corpus
// streamed into the registry in shuffled order, in uneven batches, with
// a restart and a simulated crash (torn journal tail) mid-stream, ends
// with findings byte-identical to one batch-GCD run over the final
// corpus. No node of the 54-key forest spans 256 leaves, so nothing is
// filed and each reopen rebuilds every node a check needs from the
// corpus log.
func TestDifferentialStreamed(t *testing.T) {
	moduli := weakModuli(t, 48, 96, 5, 42)
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	rng := rand.New(rand.NewSource(7))

	for pos := 0; pos < len(moduli); {
		n := 1 + rng.Intn(7)
		if pos+n > len(moduli) {
			n = len(moduli) - pos
		}
		vs, err := r.SubmitBatch(moduli[pos : pos+n])
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			if v.Kind == Malformed {
				t.Fatalf("well-formed modulus rejected: %+v", v)
			}
			if v.Index != pos+i {
				t.Fatalf("verdict index %d at position %d", v.Index, pos+i)
			}
		}
		pos += n

		switch pos {
		case 13: // clean restart mid-stream
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r = openT(t, dir, Config{})
		case 31: // crash: journal tail lost, corpus line retained
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			truncateLastLine(t, filepath.Join(dir, "journal.jsonl"))
			r = openT(t, dir, Config{})
			if st := r.Stats(); st.Replayed == 0 {
				t.Fatal("torn journal tail did not force a replay")
			}
		}
	}
	defer r.Close()

	if r.Len() != len(moduli) {
		t.Fatalf("Len() = %d, want %d", r.Len(), len(moduli))
	}
	diffBroken(t, r, oracleBroken(t, moduli))

	// And the registry state survives one more restart unchanged.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openT(t, dir, Config{})
	defer r2.Close()
	diffBroken(t, r2, oracleBroken(t, moduli))
}

// TestDifferentialNonSquarefree: corpora of 2-7 moduli, each a product of
// one to three primes from {3, 5, 7, 11, 13} with repeats allowed (so p^2,
// p^2*q, p^3 and equal moduli all occur), end with every G equal to the
// batch oracle's g_i = gcd(n_i, product of the others). That holds after
// submission, and again after a close and reopen, where Open refolds the
// journal's pairwise findings. Even trials submit one batch, odd trials
// one key at a time.
func TestDifferentialNonSquarefree(t *testing.T) {
	primes := []int64{3, 5, 7, 11, 13}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		moduli := make([]*big.Int, 2+rng.Intn(6))
		for i := range moduli {
			n := big.NewInt(1)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				n.Mul(n, big.NewInt(primes[rng.Intn(len(primes))]))
			}
			moduli[i] = n
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("trial %d corpus %v", trial, moduli)
				}
			}()
			dir := t.TempDir()
			r := openT(t, dir, Config{})
			if trial%2 == 0 {
				if _, err := r.SubmitBatch(moduli); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, n := range moduli {
					if _, err := r.Submit(n); err != nil {
						t.Fatal(err)
					}
				}
			}
			oracle := oracleBroken(t, moduli)
			diffBroken(t, r, oracle)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r = openT(t, dir, Config{})
			defer r.Close()
			diffBroken(t, r, oracle)
		}()
	}
}

// TestDifferentialWithRemovals: tombstoned keys stop participating;
// verdicts over the surviving corpus match the oracle run with the
// removed moduli excluded from every product but indices preserved.
func TestDifferentialWithRemovals(t *testing.T) {
	moduli := weakModuli(t, 32, 96, 4, 99)
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	defer r.Close()

	half := len(moduli) / 2
	if _, err := r.SubmitBatch(moduli[:half]); err != nil {
		t.Fatal(err)
	}
	// Remove a few keys, then stream the rest.
	removed := []int{1, 5, 9}
	for _, i := range removed {
		if err := r.Remove(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.SubmitBatch(moduli[half:]); err != nil {
		t.Fatal(err)
	}

	// Oracle over the surviving corpus: removed moduli replaced by 1-free
	// placeholders is not expressible in SharedFactors, so compare
	// pairwise by brute force instead.
	alive := func(i int) bool {
		for _, j := range removed {
			if i == j {
				return false
			}
		}
		return true
	}
	oracle := make(map[int]*big.Int)
	for i := range moduli {
		if !alive(i) {
			continue
		}
		acc := big.NewInt(1)
		for j := range moduli {
			if j == i || !alive(j) {
				continue
			}
			g := new(big.Int).GCD(nil, nil, moduli[i], moduli[j])
			if g.Cmp(big.NewInt(1)) > 0 {
				// gcd fold, same as the registry's.
				acc.GCD(nil, nil, moduli[i], acc.Mul(acc, g))
			}
		}
		if acc.Cmp(big.NewInt(1)) > 0 {
			oracle[i] = acc
		}
	}

	got := r.Broken()
	// Keys broken before their partner was removed keep their finding:
	// the registry never un-learns. The oracle above is the
	// post-removal view, so every oracle entry must be present and
	// byte-identical; registry entries may be a superset only for
	// indices whose sole partners were removed after the finding.
	gotMap := make(map[int]*big.Int)
	for _, bk := range got {
		gotMap[bk.Index] = bk.G
	}
	for i, want := range oracle {
		g, ok := gotMap[i]
		if !ok {
			t.Fatalf("oracle broke index %d, registry did not", i)
		}
		if new(big.Int).Mod(g, want).Sign() != 0 {
			t.Fatalf("index %d: registry G=%s does not cover oracle g=%s", i, g.Text(16), want.Text(16))
		}
	}
	for i := range gotMap {
		if alive(i) {
			continue
		}
		// Removed keys may retain pre-removal findings; fine.
	}
}

// TestDifferentialAgainstRun: the registry's pairwise findings (index,
// partner, factor) agree with batchgcd.RunContext's per-key factors on a
// corpus with duplicates.
func TestDifferentialAgainstRun(t *testing.T) {
	moduli := weakModuli(t, 24, 96, 3, 7)
	r := openT(t, t.TempDir(), Config{FindingsBuffer: 4096})
	if _, err := r.SubmitBatch(moduli); err != nil {
		t.Fatal(err)
	}
	r.Close()

	findings, err := batchgcd.RunContext(context.Background(), moduli, batchgcd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracleIdx := make(map[int]bool)
	for _, f := range findings {
		oracleIdx[f.Index] = true
	}
	regIdx := make(map[int]bool)
	for _, bk := range r.Broken() {
		regIdx[bk.Index] = true
	}
	if len(regIdx) != len(oracleIdx) {
		t.Fatalf("registry broke %v, oracle %v", regIdx, oracleIdx)
	}
	for i := range oracleIdx {
		if !regIdx[i] {
			t.Fatalf("oracle broke %d, registry did not", i)
		}
	}

	// Every streamed finding is a true shared factor.
	for f := range r.Findings() {
		g := new(big.Int).GCD(nil, nil, moduli[f.Index], moduli[f.Partner])
		if new(big.Int).Mod(g, f.Factor).Sign() != 0 || f.Factor.Cmp(big.NewInt(1)) <= 0 {
			t.Fatalf("finding %+v is not a shared factor (gcd=%s)", f, g.Text(16))
		}
	}
}

// truncateLastLine removes the final line of a text file.
func truncateLastLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for i := len(data) - 2; i >= 0; i-- {
		if data[i] == '\n' {
			cut = i + 1
			break
		}
	}
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
}
