package mpnat

import (
	"math/big"
	"testing"
)

// FuzzDivMod checks the division identity x = q*y + r, 0 <= r < y against
// math/big on arbitrary inputs, through DivScratch on a fresh and on a
// reused scratch (checkDivMod). The corpus adds TestDivModAdversarial's
// Knuth-D correction corners and exact divisions x = q*y.
func FuzzDivMod(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0x80, 0, 0, 0, 1})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFE, 0, 0, 0, 1}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	hex := func(s string) *big.Int {
		b, _ := new(big.Int).SetString(s, 16)
		return b
	}
	for _, c := range divModAdversarial {
		f.Add(hex(c[0]).Bytes(), hex(c[1]).Bytes())
	}
	for _, c := range [][2]string{
		{"fedcba9876543210fedcba98", "80000000ffffffff00000001"}, // multi-word divisor
		{"123456789abcdef0123456789", "fffffffb"},                // single-word divisor
	} {
		q, y := hex(c[0]), hex(c[1])
		f.Add(new(big.Int).Mul(q, y).Bytes(), y.Bytes())
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 256 || len(yb) > 256 {
			return
		}
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		if y.Sign() == 0 {
			return
		}
		checkDivMod(t, FromBig(x), FromBig(y))
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
