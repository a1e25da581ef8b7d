package mpnat

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"bulkgcd/internal/word"
)

// This file covers the mpnat edge paths the main suites skirt around:
// RshiftStrip over runs of all-zero trailing words, the aliasing
// combinations DivScratch documents as legal, and the FromBig/ToBig
// round trip exactly at 32-bit word and platform big.Word boundaries. It
// also holds the division harness the division tests share.

// TestRshiftStripAllZeroTrailingWords strips values whose low words are
// entirely zero: the shift distance crosses one, several, and all-but-
// one word boundaries, with and without additional in-word zeros.
func TestRshiftStripAllZeroTrailingWords(t *testing.T) {
	cases := []struct {
		name string
		in   *Nat
		want *Nat
	}{
		{"zero", &Nat{}, &Nat{}},
		{"one-zero-word", NewFromWords([]uint32{0, 5}), New(5)},
		{"three-zero-words", NewFromWords([]uint32{0, 0, 0, 7}), New(7)},
		{"zero-words-plus-in-word-shift", NewFromWords([]uint32{0, 0, 8}), New(1)},
		{"power-of-two-single-top-word", NewFromWords([]uint32{0, 0, 1 << 31}), New(1)},
		{"odd-already", NewFromWords([]uint32{3, 0, 9}), NewFromWords([]uint32{3, 0, 9})},
		{"zero-word-then-even", NewFromWords([]uint32{0, 6, 1}), NewFromWords([]uint32{0x80000003, 0}).norm2()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := new(Nat).RshiftStrip(tc.in)
			if got.Cmp(tc.want) != 0 {
				t.Fatalf("RshiftStrip(%s) = %s, want %s", tc.in.Hex(), got.Hex(), tc.want.Hex())
			}
			if !got.IsZero() && got.IsEven() {
				t.Fatalf("RshiftStrip(%s) = %s is even", tc.in.Hex(), got.Hex())
			}
			// In place: aliasing n == x must agree.
			inPlace := tc.in.Clone()
			inPlace.RshiftStrip(inPlace)
			if inPlace.Cmp(tc.want) != 0 {
				t.Fatalf("in-place RshiftStrip(%s) = %s, want %s", tc.in.Hex(), inPlace.Hex(), tc.want.Hex())
			}
		})
	}
	// Property: for x = odd << k with k spanning multiple whole words,
	// the strip always recovers the odd part.
	r := rand.New(rand.NewSource(610))
	for trial := 0; trial < 100; trial++ {
		odd := randNat(r, 1+r.Intn(8))
		odd.w[0] |= 1
		k := r.Intn(200)
		x := new(Nat).Lshift(odd, k)
		if got := new(Nat).RshiftStrip(x); got.Cmp(odd) != 0 {
			t.Fatalf("trial %d: RshiftStrip(odd<<%d) != odd", trial, k)
		}
	}
}

// TestDivScratchAliasing exercises the aliasing DivScratch documents as
// legal: Mod with r aliasing the dividend x, DivMod with x and y the
// same Nat, and back-to-back reuse of one scratch across shapes, so a
// stale scratch buffer can never leak into a result.
func TestDivScratchAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(611))
	var s DivScratch
	for trial := 0; trial < 200; trial++ {
		x := randNat(r, 1+r.Intn(40))
		y := randNat(r, 1+r.Intn(20))
		if y.IsZero() {
			continue
		}
		wantQ, wantR := new(big.Int).QuoRem(x.ToBig(), y.ToBig(), new(big.Int))

		// r == x: the dividend is overwritten by its remainder.
		rx := x.Clone()
		s.Mod(rx, rx, y)
		if rx.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("trial %d: Mod(r==x) = %s, want %s", trial, rx.Hex(), wantR.Text(16))
		}

		// x == y (same *Nat): q must be 1, r must be 0.
		q, rem := new(Nat), new(Nat)
		s.DivMod(q, rem, y, y)
		if !q.IsOne() || !rem.IsZero() {
			t.Fatalf("trial %d: DivMod(x==y) = (%s, %s), want (1, 0)", trial, q.Hex(), rem.Hex())
		}

		// Plain scratch DivMod after the aliased calls: reuse is clean.
		s.DivMod(q, rem, x, y)
		if q.ToBig().Cmp(wantQ) != 0 || rem.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("trial %d: reused-scratch DivMod mismatch", trial)
		}
	}

	// Single-word divisor path with r == x aliasing.
	x := NewFromWords([]uint32{0xDEADBEEF, 0x12345678, 0x9ABCDEF0})
	want := new(big.Int).Mod(x.ToBig(), big.NewInt(97))
	s.Mod(x, x, New(97))
	if x.ToBig().Cmp(want) != 0 {
		t.Fatalf("single-word Mod(r==x) = %s, want %s", x.Hex(), want.Text(16))
	}
}

// divRig is a DivScratch with the quotient and remainder it writes, held
// together the way internal/gcd's per-worker Scratch holds them.
type divRig struct {
	name string
	s    DivScratch
	q, r Nat
}

// divRigs returns the two rigs every division test runs on: a fresh one,
// and one that has just divided 64 words by 33, so its buffers, quotient
// and remainder are longer than a shorter division needs and hold stale
// words. A worker's scratch carries over from one Euclid step to the
// next in the same way.
func divRigs() []*divRig {
	r := rand.New(rand.NewSource(612))
	reused := &divRig{name: "reused"}
	reused.s.DivMod(&reused.q, &reused.r, randNat(r, 64), randNat(r, 33))
	return []*divRig{{name: "fresh"}, reused}
}

// checkDivMod divides x by y with DivMod and with Mod on both rigs of
// divRigs and fails unless every result matches math/big.
func checkDivMod(t testing.TB, x, y *Nat) {
	t.Helper()
	wantQ, wantR := new(big.Int).QuoRem(x.ToBig(), y.ToBig(), new(big.Int))
	for _, d := range divRigs() {
		d.s.DivMod(&d.q, &d.r, x, y)
		if d.q.ToBig().Cmp(wantQ) != 0 || d.r.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("%s scratch: DivMod(%s, %s) = (%s, %s), want (%s, %s)", d.name,
				x.Hex(), y.Hex(), d.q.Hex(), d.r.Hex(), wantQ.Text(16), wantR.Text(16))
		}
		d.s.Mod(&d.q, x, y) // into a destination that already holds a value
		if d.q.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("%s scratch: Mod(%s, %s) = %s, want %s", d.name, x.Hex(), y.Hex(), d.q.Hex(), wantR.Text(16))
		}
	}
}

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

// TestFromBigToBigWordBoundaries round-trips values placed exactly at
// the 32-bit word and platform big.Word boundaries, where the packing
// loops of ToBig/SetBig switch limbs: 2^(32k) +- 1, 2^(32k), and the
// all-ones values filling k words, for k up to past the 64-bit big.Word
// pairing.
func TestFromBigToBigWordBoundaries(t *testing.T) {
	one := big.NewInt(1)
	for k := 1; k <= 9; k++ {
		edge := new(big.Int).Lsh(one, uint(32*k))
		for _, v := range []*big.Int{
			new(big.Int).Sub(edge, one), // 2^(32k) - 1: k full words
			new(big.Int).Set(edge),      // 2^(32k): word k+1 is exactly 1
			new(big.Int).Add(edge, one), // straddles the boundary
		} {
			n := FromBig(v)
			if got := n.ToBig(); got.Cmp(v) != 0 {
				t.Fatalf("round trip of %s gave %s", v.Text(16), got.Text(16))
			}
			wantWords := (v.BitLen() + word.Bits - 1) / word.Bits
			if n.Len() != wantWords {
				t.Fatalf("%s: Len = %d, want %d (normalization at the boundary)", v.Text(16), n.Len(), wantWords)
			}
			// SetBig into a dirty, previously longer Nat must fully
			// replace the old words.
			dirty := NewFromWords([]uint32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
			if got := dirty.SetBig(v).ToBig(); got.Cmp(v) != 0 {
				t.Fatalf("SetBig into dirty Nat gave %s, want %s", got.Text(16), v.Text(16))
			}
		}
	}
	// Platform boundary note: on 64-bit hosts one big.Word carries two
	// mpnat words; a value that is non-zero only in the high half of a
	// big.Word must not gain a phantom low word.
	if bits.UintSize == 64 {
		v := new(big.Int).Lsh(one, 32) // high half of big.Word 0
		n := FromBig(v)
		if n.Len() != 2 || n.w[0] != 0 || n.w[1] != 1 {
			t.Fatalf("2^32 unpacked to %v", n.w)
		}
	}
	if FromBig(new(big.Int)).Len() != 0 {
		t.Fatal("FromBig(0) not the canonical zero")
	}
}

// norm2 re-normalizes a hand-built Nat in tests (NewFromWords already
// normalizes; this makes the intent explicit for literals with high
// zeros).
func (n *Nat) norm2() *Nat {
	n.norm()
	return n
}
