package mpnat

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// randBig returns a uniformly random integer with exactly bits significant
// bits (top bit set) drawn from r.
func randBig(r *rand.Rand, bits int) *big.Int {
	if bits <= 0 {
		return new(big.Int)
	}
	out := new(big.Int)
	for out.BitLen() < bits {
		out.Lsh(out, 32)
		out.Or(out, big.NewInt(int64(r.Uint32())))
	}
	out.Rsh(out, uint(out.BitLen()-bits))
	out.SetBit(out, bits-1, 1)
	return out
}

func TestZeroValueReady(t *testing.T) {
	var n Nat
	if !n.IsZero() || n.Len() != 0 || n.BitLen() != 0 || !n.IsEven() {
		t.Fatal("zero value of Nat is not the number zero")
	}
	if n.String() != "0" || n.Hex() != "0" {
		t.Fatalf("zero formats as %q / %q", n.String(), n.Hex())
	}
}

func TestNewAndUint64(t *testing.T) {
	cases := []uint64{0, 1, 2, 0xFFFFFFFF, 0x100000000, 0xFFFFFFFFFFFFFFFF, 55555, 1043915}
	for _, v := range cases {
		n := New(v)
		if n.Uint64() != v {
			t.Errorf("New(%d).Uint64() = %d", v, n.Uint64())
		}
		wantLen := 0
		switch {
		case v == 0:
		case v>>32 == 0:
			wantLen = 1
		default:
			wantLen = 2
		}
		if n.Len() != wantLen {
			t.Errorf("New(%d).Len() = %d, want %d", v, n.Len(), wantLen)
		}
	}
}

func TestUint64PanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromWords([]uint32{1, 2, 3}).Uint64()
}

func TestNewFromWordsNormalizes(t *testing.T) {
	n := NewFromWords([]uint32{5, 0, 0})
	if n.Len() != 1 || n.Uint64() != 5 {
		t.Fatalf("normalization failed: len=%d val=%v", n.Len(), n)
	}
	if z := NewFromWords([]uint32{0, 0}); !z.IsZero() {
		t.Fatal("all-zero words should normalize to zero")
	}
}

func TestBigRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, bits := range []int{1, 31, 32, 33, 63, 64, 65, 512, 1024, 4096} {
		for i := 0; i < 20; i++ {
			b := randBig(r, bits)
			n := FromBig(b)
			if n.ToBig().Cmp(b) != 0 {
				t.Fatalf("round trip failed for %v (bits=%d)", b, bits)
			}
			if n.BitLen() != b.BitLen() {
				t.Fatalf("BitLen %d != big %d", n.BitLen(), b.BitLen())
			}
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		b := randBig(r, 1+r.Intn(2048))
		n := FromBig(b)
		got, err := ParseHex(n.Hex())
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(n) != 0 {
			t.Fatalf("hex round trip failed: %s", n.Hex())
		}
		if n.Hex() != b.Text(16) {
			t.Fatalf("Hex() = %s, big says %s", n.Hex(), b.Text(16))
		}
	}
}

func TestParseHexErrors(t *testing.T) {
	for _, s := range []string{"", "xyz", "-ff", "0x12"} {
		if _, err := ParseHex(s); err == nil {
			t.Errorf("ParseHex(%q) succeeded, want error", s)
		}
	}
}

func TestCmp(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		a := randBig(r, 1+r.Intn(300))
		b := randBig(r, 1+r.Intn(300))
		if got, want := FromBig(a).Cmp(FromBig(b)), a.Cmp(b); got != want {
			t.Fatalf("Cmp(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
	n := New(42)
	if n.Cmp(n) != 0 {
		t.Fatal("self compare != 0")
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		a := randBig(r, 1+r.Intn(600))
		b := randBig(r, 1+r.Intn(600))
		sum := new(Nat).Add(FromBig(a), FromBig(b))
		wantSum := new(big.Int).Add(a, b)
		if sum.ToBig().Cmp(wantSum) != 0 {
			t.Fatalf("Add(%v,%v) = %v, want %v", a, b, sum, wantSum)
		}
		diff := new(Nat).Sub(sum, FromBig(b))
		if diff.ToBig().Cmp(a) != 0 {
			t.Fatalf("Sub round trip failed")
		}
	}
}

func TestAddAliasing(t *testing.T) {
	a := New(0xFFFFFFFF)
	a.Add(a, a)
	if a.Uint64() != 0x1FFFFFFFE {
		t.Fatalf("a.Add(a,a) = %v", a)
	}
	b := New(7)
	c := New(9)
	b.Add(b, c)
	if b.Uint64() != 16 || c.Uint64() != 9 {
		t.Fatalf("aliased Add corrupted operands: %v %v", b, c)
	}
	d := New(3)
	e := New(1 << 40)
	d.Add(e, d) // n aliases the shorter operand
	if d.Uint64() != (1<<40)+3 {
		t.Fatalf("d = %v", d)
	}
}

func TestSubAliasingAndUnderflow(t *testing.T) {
	a := New(100)
	a.Sub(a, New(58))
	if a.Uint64() != 42 {
		t.Fatalf("aliased Sub = %v", a)
	}
	a.Sub(a, a)
	if !a.IsZero() {
		t.Fatal("x - x != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sub underflow did not panic")
		}
	}()
	new(Nat).Sub(New(1), New(2))
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a := randBig(r, 1+r.Intn(400))
		k := r.Intn(130)
		if got := new(Nat).Lshift(FromBig(a), k).ToBig(); got.Cmp(new(big.Int).Lsh(a, uint(k))) != 0 {
			t.Fatalf("Lshift(%v,%d) = %v", a, k, got)
		}
		if got := new(Nat).Rshift(FromBig(a), k).ToBig(); got.Cmp(new(big.Int).Rsh(a, uint(k))) != 0 {
			t.Fatalf("Rshift(%v,%d) = %v", a, k, got)
		}
	}
	// In-place shifts.
	n := New(0xF0)
	n.Rshift(n, 4)
	if n.Uint64() != 0xF {
		t.Fatalf("in-place Rshift = %v", n)
	}
	n.Lshift(n, 64)
	if n.Len() != 3 || n.ToBig().Cmp(new(big.Int).Lsh(big.NewInt(0xF), 64)) != 0 {
		t.Fatalf("in-place Lshift = %v", n)
	}
	// Shifting past the end yields zero.
	if !new(Nat).Rshift(New(12345), 64).IsZero() {
		t.Fatal("over-shift not zero")
	}
}

func TestRshiftStrip(t *testing.T) {
	// rshift(1101,0100) = 0011,0101 -- the paper's Section II example.
	n := New(0b11010100)
	n.RshiftStrip(n)
	if n.Uint64() != 0b110101 {
		t.Fatalf("rshift(11010100) = %b, want 110101", n.Uint64())
	}
	if !new(Nat).RshiftStrip(new(Nat)).IsZero() {
		t.Fatal("rshift(0) != 0")
	}
	// Odd numbers are unchanged.
	o := New(0xABCDEF1)
	got := new(Nat).RshiftStrip(o)
	if got.Cmp(o) != 0 {
		t.Fatal("rshift changed an odd number")
	}
	// Result is always odd for non-zero input.
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		v := randBig(r, 1+r.Intn(300))
		s := new(Nat).RshiftStrip(FromBig(v))
		if s.IsEven() {
			t.Fatalf("rshift(%v) = %v is even", v, s)
		}
	}
}

func TestTrailingZeroBits(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{1, 0}, {2, 1}, {8, 3}, {0x100000000, 32}, {0x300000000, 32}, {1 << 45, 45},
	}
	for _, c := range cases {
		if got := New(c.v).TrailingZeroBits(); got != c.want {
			t.Errorf("TrailingZeroBits(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}

// The division tests below run DivScratch, the long division Original
// and Fast Euclid run, on both rigs of divRigs (edge_test.go): a fresh
// scratch and one reused from a longer division.

func TestDivModAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		x := randBig(r, 1+r.Intn(800))
		y := randBig(r, 1+r.Intn(800))
		checkDivMod(t, FromBig(x), FromBig(y))
	}
}

// divModAdversarial holds cases that stress the Knuth quotient-digit
// correction: divisor top word just above/below half base, quotient
// digits of D-1, remainders of 0. FuzzDivMod seeds its corpus with them.
var divModAdversarial = [][2]string{
	{"ffffffffffffffffffffffff", "800000000000000000000001"},
	{"ffffffffffffffffffffffff", "80000000ffffffff"},
	{"fffffffe00000001", "ffffffff"},          // exact square
	{"100000000000000000000000", "100000001"}, // long zero runs
	{"7fffffffffffffffffffffffffffffff", "80000000000000000000000000000001"},
	{"80000000000000000000000000000000", "7fffffffffffffffffffffffffffffff"},
}

func TestDivModAdversarial(t *testing.T) {
	for _, c := range divModAdversarial {
		x, err := ParseHex(c[0])
		if err != nil {
			t.Fatal(err)
		}
		y, err := ParseHex(c[1])
		if err != nil {
			t.Fatal(err)
		}
		checkDivMod(t, x, y)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	for _, d := range divRigs() {
		for op, fn := range map[string]func(){
			"DivMod": func() { d.s.DivMod(&d.q, &d.r, New(1), new(Nat)) },
			"Mod":    func() { d.s.Mod(&d.r, New(1), new(Nat)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s scratch: %s by zero did not panic", d.name, op)
					}
				}()
				fn()
			}()
		}
	}
}

func TestModAliasSafe(t *testing.T) {
	for _, d := range divRigs() {
		x := New(1043915)
		d.s.Mod(x, x, New(768955))
		if x.Uint64() != 1043915%768955 {
			t.Fatalf("%s scratch: in-place Mod = %v", d.name, x)
		}
	}
}

func TestTop2AndTopWord(t *testing.T) {
	n := NewFromWords([]uint32{0x33333333, 0x22222222, 0x11111111})
	if n.TopWord() != 0x11111111 {
		t.Fatalf("TopWord = %#x", n.TopWord())
	}
	if n.Top2() != 0x1111111122222222 {
		t.Fatalf("Top2 = %#x", n.Top2())
	}
	if New(0xABCD).Top2() != 0xABCD {
		t.Fatal("Top2 of 1-word Nat should be the word itself")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(99)
	b := a.Clone()
	b.Add(b, New(1))
	if a.Uint64() != 99 || b.Uint64() != 100 {
		t.Fatal("Clone shares storage")
	}
}

// Property: quick-checked algebraic identities through big.Int.
func TestQuickIdentities(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(xs, ys []uint32) bool {
		x, y := NewFromWords(xs), NewFromWords(ys)
		if y.IsZero() {
			y = New(1)
		}
		for _, d := range divRigs() {
			d.s.DivMod(&d.q, &d.r, x, y)
			// x == q*y + r and r < y.
			recon := new(big.Int).Mul(d.q.ToBig(), y.ToBig())
			recon.Add(recon, d.r.ToBig())
			if recon.Cmp(x.ToBig()) != 0 || d.r.Cmp(y) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSubMulRshiftAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		y := randBig(r, 1+r.Intn(400))
		alpha := uint32(r.Uint64())
		if alpha == 0 {
			alpha = 1
		}
		// Build x >= y*alpha.
		x := new(big.Int).Mul(y, big.NewInt(int64(alpha)))
		x.Add(x, randBig(r, 1+r.Intn(400)))
		got := new(Nat).SubMulRshift(FromBig(x), FromBig(y), alpha)
		want := new(big.Int).Sub(x, new(big.Int).Mul(y, big.NewInt(int64(alpha))))
		stripTrailingZeros(want)
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("SubMulRshift mismatch: got %v want %v", got, want)
		}
	}
}

func stripTrailingZeros(b *big.Int) {
	if b.Sign() == 0 {
		return
	}
	for b.Bit(0) == 0 {
		b.Rsh(b, 1)
	}
}

func TestSubMulRshiftAliasing(t *testing.T) {
	x := New(1000)
	y := New(3)
	x.SubMulRshift(x, y, 3) // 1000 - 9 = 991 (odd)
	if x.Uint64() != 991 {
		t.Fatalf("aliased SubMulRshift = %v", x)
	}
	y.SubMulRshift(New(100), y, 2) // 100 - 6 = 94 -> 47
	if y.Uint64() != 47 {
		t.Fatalf("y-aliased SubMulRshift = %v", y)
	}
}

func TestSubMulRshiftUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Nat).SubMulRshift(New(10), New(7), 2)
}

func TestMulWord(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		y := randBig(r, 1+r.Intn(500))
		alpha := uint32(r.Uint64())
		got := new(Nat).MulWord(FromBig(y), alpha)
		want := new(big.Int).Mul(y, new(big.Int).SetUint64(uint64(alpha)))
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("MulWord mismatch")
		}
	}
	if !new(Nat).MulWord(New(5), 0).IsZero() {
		t.Fatal("MulWord by 0 not zero")
	}
}

func TestSubMulShiftAddRshift(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		y := randBig(r, 32+r.Intn(200))
		alpha := uint32(r.Uint64()) | 1
		beta := 1 + r.Intn(4)
		// x = y*alpha*D^beta + extra, so the precondition holds.
		ad := new(big.Int).Mul(y, new(big.Int).SetUint64(uint64(alpha)))
		ad.Lsh(ad, uint(32*beta))
		x := new(big.Int).Add(ad, randBig(r, 1+r.Intn(100)))
		got := new(Nat).SubMulShiftAddRshift(FromBig(x), FromBig(y), alpha, beta)
		want := new(big.Int).Sub(x, ad)
		want.Add(want, y)
		stripTrailingZeros(want)
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("SubMulShiftAddRshift mismatch: got %v want %v", got, want)
		}
	}
}

func TestSubMulShiftAddRshiftBetaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Nat).SubMulShiftAddRshift(New(100), New(3), 1, 0)
}

func BenchmarkSubMulRshift1024(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := FromBig(randBig(r, 1056))
	y := FromBig(randBig(r, 1024))
	tmp := new(Nat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp.Set(x)
		tmp.SubMulRshift(tmp, y, 3)
	}
}

func BenchmarkDivMod1024(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := FromBig(randBig(r, 1024))
	y := FromBig(randBig(r, 512))
	var s DivScratch
	q, rem := new(Nat), new(Nat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DivMod(q, rem, x, y)
	}
}

func BenchmarkCmp4096(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := FromBig(randBig(r, 4096))
	y := x.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Cmp(y)
	}
}

func TestSubRshiftDirect(t *testing.T) {
	// rshift(X - Y), the Fast Binary update, on the paper's first step:
	// 1043915 - 768955 = 274960 -> strip 4 zeros -> 17185.
	got := new(Nat).SubRshift(New(1043915), New(768955))
	if got.Uint64() != 17185 {
		t.Fatalf("SubRshift = %v, want 17185", got)
	}
	// x == y gives zero.
	if !new(Nat).SubRshift(New(99), New(99)).IsZero() {
		t.Fatal("SubRshift(x,x) != 0")
	}
	// In place.
	x := New(1043915)
	x.SubRshift(x, New(768955))
	if x.Uint64() != 17185 {
		t.Fatalf("in-place SubRshift = %v", x)
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Top2 of zero":         func() { new(Nat).Top2() },
		"TopWord of zero":      func() { new(Nat).TopWord() },
		"FromBig negative":     func() { FromBig(big.NewInt(-1)) },
		"Lshift negative":      func() { new(Nat).Lshift(New(1), -1) },
		"Rshift negative":      func() { new(Nat).Rshift(New(1), -1) },
		"SubMulRshift alpha 0": func() { new(Nat).SubMulRshift(New(1), New(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTrailingZeroBitsMultiWordGap(t *testing.T) {
	// A zero low word followed by an even word: 0x6 << 32.
	n := NewFromWords([]uint32{0, 6})
	if got := n.TrailingZeroBits(); got != 33 {
		t.Fatalf("TrailingZeroBits = %d, want 33", got)
	}
	if new(Nat).TrailingZeroBits() != 0 {
		t.Fatal("TrailingZeroBits(0) != 0")
	}
}

func TestLshiftZeroAndWordAligned(t *testing.T) {
	if !new(Nat).Lshift(new(Nat), 100).IsZero() {
		t.Fatal("0 << k != 0")
	}
	got := new(Nat).Lshift(New(0xDEADBEEF), 64) // word-aligned path
	want := new(big.Int).Lsh(big.NewInt(0xDEADBEEF), 64)
	if got.ToBig().Cmp(want) != 0 {
		t.Fatalf("word-aligned Lshift wrong")
	}
}
