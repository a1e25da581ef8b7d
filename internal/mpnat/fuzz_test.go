package mpnat

import (
	"math/big"
	"testing"
)

// FuzzDivMod checks the division identity x = q*y + r, 0 <= r < y against
// math/big on arbitrary inputs.
func FuzzDivMod(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0x80, 0, 0, 0, 1})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFE, 0, 0, 0, 1}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 256 || len(yb) > 256 {
			return
		}
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		if y.Sign() == 0 {
			return
		}
		q, r := DivMod(FromBig(x), FromBig(y))
		wantQ, wantR := new(big.Int).QuoRem(x, y, new(big.Int))
		if q.ToBig().Cmp(wantQ) != 0 || r.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("DivMod(%v,%v) = (%v,%v), want (%v,%v)", x, y, q, r, wantQ, wantR)
		}
	})
}

// FuzzSubMulRshift checks the fused update against its big.Int definition.
func FuzzSubMulRshift(f *testing.F) {
	f.Add([]byte{0x12, 0x34}, uint32(3), []byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint32(0xFFFFFFFF), []byte{0})
	f.Fuzz(func(t *testing.T, yb []byte, alpha uint32, extraB []byte) {
		if len(yb) > 128 || len(extraB) > 128 || alpha == 0 {
			return
		}
		y := new(big.Int).SetBytes(yb)
		extra := new(big.Int).SetBytes(extraB)
		x := new(big.Int).Mul(y, new(big.Int).SetUint64(uint64(alpha)))
		x.Add(x, extra)
		if x.Sign() == 0 {
			return
		}
		got := new(Nat).SubMulRshift(FromBig(x), FromBig(y), alpha)
		want := new(big.Int).Set(extra)
		for want.Sign() != 0 && want.Bit(0) == 0 {
			want.Rsh(want, 1)
		}
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("SubMulRshift: got %v, want %v (y=%v alpha=%d extra=%v)", got, want, y, alpha, extra)
		}
	})
}

// FuzzMulMatchesBig drives both multiplication paths — schoolbook below
// bigMulWords on the shorter operand, the math/big round trip from it
// up — against the math/big oracle, through Nat.Mul, a fresh and a
// reused MulScratch, and the aliased forms z == x and x == y. The
// seeded corpus pins the cutoff (shorter operand at 23, 24 and 25
// words), odd word counts that leave the top 64-bit limb half filled,
// ragged, 1xN and Nx24 operand pairs, and the carry-extreme all-ones
// shapes.
func FuzzMulMatchesBig(f *testing.F) {
	k := bigMulWords
	sized := func(words int, fill byte) []byte {
		b := make([]byte, 4*words)
		for i := range b {
			b[i] = fill
		}
		if len(b) > 0 && fill == 0 {
			b[0] = 1 // keep the top word non-zero
		}
		return b
	}
	for _, n := range []int{1, 2, k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1} {
		f.Add(sized(n, 0xFF), sized(n, 0xFF))  // all-ones boundary squares
		f.Add(sized(n, 0), sized(n/2+1, 0xAB)) // power-of-two x ragged y
		f.Add(sized(3*n+1, 0x55), sized(n, 0)) // unbalanced, shorter operand n
	}
	f.Add(sized(1, 0xFF), sized(4*k+1, 0xFF)) // 1xN
	f.Add(sized(4*k+1, 0x3C), sized(k, 0xFF)) // Nx24
	f.Add([]byte{}, sized(k+1, 0x7F))         // zero operand
	f.Add([]byte{1}, []byte{1})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 2048 || len(yb) > 2048 {
			return
		}
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		want := new(big.Int).Mul(x, y)
		wantSq := new(big.Int).Mul(x, x)
		xn, yn := FromBig(x), FromBig(y)

		if got := new(Nat).Mul(xn, yn); got.ToBig().Cmp(want) != 0 {
			t.Fatalf("Mul mismatch for %d x %d words", xn.Len(), yn.Len())
		}
		var s MulScratch
		z := new(Nat)
		if s.Mul(z, xn, yn); z.ToBig().Cmp(want) != 0 {
			t.Fatalf("MulScratch.Mul mismatch for %d x %d words", xn.Len(), yn.Len())
		}
		if s.Mul(z, xn, yn); z.ToBig().Cmp(want) != 0 {
			t.Fatalf("reused-scratch Mul mismatch for %d x %d words", xn.Len(), yn.Len())
		}
		if z = xn.Clone(); s.Mul(z, z, yn).ToBig().Cmp(want) != 0 {
			t.Fatalf("z==x Mul mismatch for %d x %d words", xn.Len(), yn.Len())
		}
		if got := s.Mul(new(Nat), xn, xn); got.ToBig().Cmp(wantSq) != 0 {
			t.Fatalf("x==y Mul mismatch for %d words", xn.Len())
		}
	})
}

// FuzzHexRoundTrip checks Hex/ParseHex inverse on arbitrary values.
func FuzzHexRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1024 {
			return
		}
		n := FromBig(new(big.Int).SetBytes(b))
		got, err := ParseHex(n.Hex())
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(n) != 0 {
			t.Fatalf("round trip failed for %s", n.Hex())
		}
	})
}
