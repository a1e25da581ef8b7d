package mpnat

import (
	"math/big"
	"math/rand"
	"testing"
)

// This file is the differential harness for Mul (mul.go): both paths,
// schoolbook below bigMulWords on the shorter operand and the math/big
// round trip from it up, are driven at and around the cutoff against the
// math/big oracle. A silent carry or packing bug in Mul corrupts every
// product-tree engine at once, so the shapes here are chosen to maximize
// carry stress and packing edge cases: all-ones words, single set bits
// at word boundaries, ragged and 1xN operand pairs, odd word counts
// (whose top 32-bit word fills only half a 64-bit big.Word), zero and
// one limbs.

// randNat returns a Nat of exactly words words (top word forced
// non-zero) drawn from r.
func randNat(r *rand.Rand, words int) *Nat {
	if words == 0 {
		return &Nat{}
	}
	ws := make([]uint32, words)
	for i := range ws {
		ws[i] = r.Uint32()
	}
	for ws[words-1] == 0 {
		ws[words-1] = r.Uint32()
	}
	return NewFromWords(ws)
}

// onesNat returns the Nat with words words all 0xFFFFFFFF — the
// maximum-carry operand (B^n - 1).
func onesNat(words int) *Nat {
	ws := make([]uint32, words)
	for i := range ws {
		ws[i] = 0xFFFFFFFF
	}
	return NewFromWords(ws)
}

// bitNat returns 2^bit.
func bitNat(bit int) *Nat {
	ws := make([]uint32, bit/32+1)
	ws[bit/32] = 1 << (bit % 32)
	return NewFromWords(ws)
}

// checkMul verifies z = x*y three ways — Nat.Mul, a fresh MulScratch,
// and a shared scratch passed by the caller — against the math/big
// oracle.
func checkMul(t *testing.T, s *MulScratch, x, y *Nat) {
	t.Helper()
	want := new(big.Int).Mul(x.ToBig(), y.ToBig())
	if got := new(Nat).Mul(x, y); got.ToBig().Cmp(want) != 0 {
		t.Fatalf("Mul(%d words, %d words): got %s, want %s",
			x.Len(), y.Len(), got.Hex(), want.Text(16))
	}
	if got := new(MulScratch).Mul(new(Nat), x, y); got.ToBig().Cmp(want) != 0 {
		t.Fatalf("fresh MulScratch.Mul(%d, %d words) mismatch", x.Len(), y.Len())
	}
	if got := s.Mul(new(Nat), x, y); got.ToBig().Cmp(want) != 0 {
		t.Fatalf("shared MulScratch.Mul(%d, %d words) mismatch", x.Len(), y.Len())
	}
}

// boundarySizes returns every interesting word count around the cutoff:
// n-1, n, n+1, the small cases, and sizes well above it with odd and
// even word counts.
func boundarySizes() []int {
	k := bigMulWords
	return []int{0, 1, 2, 3, 7, k - 1, k, k + 1, 2*k - 1, 2 * k, 4*k + 1}
}

// TestMulThresholdBoundaries drives every (xWords, yWords) pair of
// boundary sizes — which puts the shorter operand on both sides of the
// cutoff against longer operands of every size — against the oracle,
// reusing one scratch across all cases to prove scratch reuse cannot
// leak state between multiplications.
func TestMulThresholdBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(600))
	shared := new(MulScratch)
	for _, xs := range boundarySizes() {
		for _, ys := range boundarySizes() {
			x, y := randNat(r, xs), randNat(r, ys)
			checkMul(t, shared, x, y)
		}
	}
}

// TestMulSpecialLimbs covers the degenerate and carry-extreme operand
// shapes at sizes on both sides of the cutoff: zero, one, powers of
// two at word boundaries, and all-ones words.
func TestMulSpecialLimbs(t *testing.T) {
	k := bigMulWords
	shared := new(MulScratch)
	r := rand.New(rand.NewSource(601))
	for _, n := range []int{1, k - 1, k, k + 1, 4 * k, 4*k + 1} {
		specials := []*Nat{
			&Nat{},                 // zero
			New(1),                 // one
			onesNat(n),             // B^n - 1: maximum carry chains
			bitNat(32*nolt(n) - 1), // top bit of the band
			bitNat(32 * (n - n/2)), // power of two on a word boundary
			randNat(r, n),
		}
		for _, x := range specials {
			for _, y := range specials {
				checkMul(t, shared, x, y)
			}
		}
	}
}

// nolt guards bitNat's argument for n >= 1.
func nolt(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// TestMulRaggedPairs stresses unbalanced shapes: one operand many times
// longer than the other with the shorter one at 23, 24 and 25 words,
// plus the 1xN and Nx24 extremes, in both argument orders.
func TestMulRaggedPairs(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	k := bigMulWords
	shared := new(MulScratch)
	for _, base := range []int{k - 1, k, k + 1} {
		for _, ratio := range []int{2, 3, 5} {
			for _, off := range []int{-1, 0, 1, base / 2} {
				long := base*ratio + off
				checkMul(t, shared, randNat(r, long), randNat(r, base))
				checkMul(t, shared, randNat(r, base), randNat(r, long))
			}
		}
	}
	for _, long := range []int{1, k - 1, k, k + 1, 97, 1000} {
		for _, short := range []int{1, k} {
			checkMul(t, shared, randNat(r, long), randNat(r, short))
			checkMul(t, shared, randNat(r, short), randNat(r, long))
			checkMul(t, shared, onesNat(long), onesNat(short))
		}
	}
}

// TestMulAliasingAllBands checks every aliasing combination the Mul
// contract allows — z == x, z == y, x == y with a distinct z, and
// z == x == y — on both sides of the cutoff, through Nat.Mul and through
// a reused MulScratch (the small-operand case is TestMulAliasing in
// modular_test.go).
func TestMulAliasingAllBands(t *testing.T) {
	r := rand.New(rand.NewSource(603))
	k := bigMulWords
	var s MulScratch
	for _, n := range []int{3, k - 1, k, k + 1, 4*k + 1} {
		x0, y0 := randNat(r, n), randNat(r, n)
		want := new(big.Int).Mul(x0.ToBig(), y0.ToBig())
		wantSq := new(big.Int).Mul(x0.ToBig(), x0.ToBig())

		for _, mul := range []struct {
			name string
			f    func(z, x, y *Nat) *Nat
		}{
			{"Nat.Mul", func(z, x, y *Nat) *Nat { return z.Mul(x, y) }},
			{"MulScratch.Mul", s.Mul},
		} {
			z := x0.Clone()
			mul.f(z, z, y0.Clone())
			if z.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s: z==x aliasing broken at %d words", mul.name, n)
			}
			z = y0.Clone()
			mul.f(z, x0.Clone(), z)
			if z.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s: z==y aliasing broken at %d words", mul.name, n)
			}
			x := x0.Clone()
			if got := mul.f(new(Nat), x, x); got.ToBig().Cmp(wantSq) != 0 || x.Cmp(x0) != 0 {
				t.Fatalf("%s: x==y aliasing broken at %d words", mul.name, n)
			}
			z = x0.Clone()
			mul.f(z, z, z)
			if z.ToBig().Cmp(wantSq) != 0 {
				t.Fatalf("%s: z==x==y aliasing broken at %d words", mul.name, n)
			}
		}
		if got := new(Nat).Sqr(x0); got.ToBig().Cmp(wantSq) != 0 {
			t.Fatalf("Sqr broken at %d words", n)
		}
	}
}

// TestMulProperties is the property-based leg of the harness: with
// operand sizes drawn across the cutoff, so products mix both paths, it
// checks commutativity, associativity via 3-way products,
// distributivity over Add, and the Mul-then-DivMod round trip on random
// triples.
func TestMulProperties(t *testing.T) {
	r := rand.New(rand.NewSource(604))
	for trial := 0; trial < 300; trial++ {
		x := randNat(r, r.Intn(2*bigMulWords))
		y := randNat(r, r.Intn(2*bigMulWords))
		z := randNat(r, r.Intn(2*bigMulWords))

		xy := new(Nat).Mul(x, y)
		yx := new(Nat).Mul(y, x)
		if xy.Cmp(yx) != 0 {
			t.Fatalf("trial %d: x*y != y*x", trial)
		}
		l := new(Nat).Mul(xy, z)
		rr := new(Nat).Mul(x, new(Nat).Mul(y, z))
		if l.Cmp(rr) != 0 {
			t.Fatalf("trial %d: (x*y)*z != x*(y*z)", trial)
		}
		d1 := new(Nat).Mul(x, new(Nat).Add(y, z))
		d2 := new(Nat).Add(new(Nat).Mul(x, y), new(Nat).Mul(x, z))
		if d1.Cmp(d2) != 0 {
			t.Fatalf("trial %d: x*(y+z) != x*y + x*z", trial)
		}
		if !y.IsZero() {
			q, rem := DivMod(xy, y)
			if q.Cmp(x) != 0 || !rem.IsZero() {
				t.Fatalf("trial %d: DivMod(x*y, y) != (x, 0)", trial)
			}
		}
	}
}

// TestMulScratchReuse proves the scratch claim: with a warm scratch and
// a preallocated destination, multiplication performs no allocation on
// either path, aliased or not.
func TestMulScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(607))
	for _, n := range []int{bigMulWords - 1, bigMulWords, 512} {
		x, y := randNat(r, n), randNat(r, n)
		s := new(MulScratch)
		z := new(Nat).Grow(2 * n)
		s.Mul(z, x, y) // warm the scratch
		want := z.Clone()
		allocs := testing.AllocsPerRun(10, func() {
			s.Mul(z, x, y)
		})
		if allocs != 0 {
			t.Errorf("%d words: warm MulScratch.Mul allocated %.1f times per op, want 0", n, allocs)
		}
		if z.Cmp(want) != 0 {
			t.Fatalf("%d words: warm-path product drifted", n)
		}
		a := new(Nat).Grow(2 * n).Set(x)
		s.Mul(a, a, y) // warm the aliased path
		allocs = testing.AllocsPerRun(10, func() {
			a.Set(x)
			s.Mul(a, a, y)
		})
		if allocs != 0 {
			t.Errorf("%d words: warm aliased MulScratch.Mul allocated %.1f times per op, want 0", n, allocs)
		}
		if a.Cmp(want) != 0 {
			t.Fatalf("%d words: aliased warm-path product drifted", n)
		}
	}
}

// TestMulMatchesOldSchoolbook pins the two paths against each other:
// below the cutoff Mul is the schoolbook loop and must equal the oracle,
// and at every size from 1 to 2*bigMulWords words, including odd counts
// that leave the top big.Word half filled, the schoolbook loop and the
// math/big round trip compute the same words.
func TestMulMatchesOldSchoolbook(t *testing.T) {
	r := rand.New(rand.NewSource(608))
	k := bigMulWords
	for trial := 0; trial < 50; trial++ {
		x := randNat(r, 1+r.Intn(k-1))
		y := randNat(r, 1+r.Intn(4*k))
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		if got := new(Nat).Mul(x, y); got.ToBig().Cmp(want) != 0 {
			t.Fatalf("trial %d: schoolbook band mismatch", trial)
		}
	}
	var s MulScratch
	for xs := 1; xs <= 2*k; xs++ {
		for _, ys := range []int{1, k - 1, k, k + 1, xs} {
			x, y := randNat(r, xs), randNat(r, ys)
			school := make([]uint32, xs+ys)
			basicMul(school, x.Words(), y.Words())
			if got := s.bigMul(new(Nat), x, y); got.Cmp(NewFromWords(school)) != 0 {
				t.Fatalf("%d x %d words: math/big round trip differs from schoolbook", xs, ys)
			}
		}
	}
}

// TestMulThresholdSweepExhaustive runs a dense size sweep across the
// cutoff, so the schoolbook -> math/big edge is crossed from both
// operand orders, each size at multiple random draws.
func TestMulThresholdSweepExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(609))
	k := bigMulWords
	shared := new(MulScratch)
	for xs := 1; xs <= 2*k+1; xs++ {
		for _, ys := range []int{1, 2, k - 2, k - 1, k, k + 1, k + 2, xs} {
			checkMul(t, shared, randNat(r, xs), randNat(r, ys))
			checkMul(t, shared, randNat(r, ys), randNat(r, xs))
		}
	}
	// And the all-ones diagonal, the worst carry case, at every size.
	for n := 1; n <= 2*k+1; n++ {
		checkMul(t, shared, onesNat(n), onesNat(n))
	}
}

// TestMulThresholdsDocumented keeps the DESIGN.md section 5f number
// honest: the shipped cutoff is what the doc and BenchmarkMulThresholds
// say.
func TestMulThresholdsDocumented(t *testing.T) {
	if bigMulWords != 24 {
		t.Fatalf("bigMulWords = %d drifted from the documented 24; update DESIGN.md 5f", bigMulWords)
	}
}
