package word

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdd32Basic(t *testing.T) {
	cases := []struct {
		x, y, c   uint32
		sum, cout uint32
	}{
		{0, 0, 0, 0, 0},
		{1, 2, 0, 3, 0},
		{0xFFFFFFFF, 1, 0, 0, 1},
		{0xFFFFFFFF, 0xFFFFFFFF, 1, 0xFFFFFFFF, 1},
		{0x80000000, 0x80000000, 0, 0, 1},
		{0x7FFFFFFF, 1, 1, 0x80000001, 0},
	}
	for _, c := range cases {
		sum, cout := Add32(c.x, c.y, c.c)
		if sum != c.sum || cout != c.cout {
			t.Errorf("Add32(%#x,%#x,%d) = (%#x,%d), want (%#x,%d)",
				c.x, c.y, c.c, sum, cout, c.sum, c.cout)
		}
	}
}

func TestSub32Basic(t *testing.T) {
	cases := []struct {
		x, y, b    uint32
		diff, bout uint32
	}{
		{0, 0, 0, 0, 0},
		{3, 2, 0, 1, 0},
		{0, 1, 0, 0xFFFFFFFF, 1},
		{0, 0, 1, 0xFFFFFFFF, 1},
		{5, 2, 1, 2, 0},
		{2, 2, 1, 0xFFFFFFFF, 1},
	}
	for _, c := range cases {
		diff, bout := Sub32(c.x, c.y, c.b)
		if diff != c.diff || bout != c.bout {
			t.Errorf("Sub32(%#x,%#x,%d) = (%#x,%d), want (%#x,%d)",
				c.x, c.y, c.b, diff, bout, c.diff, c.bout)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		sum, c := Add32(x, y, 0)
		diff, b := Sub32(sum, y, 0)
		// x + y - y == x, and a borrow occurs exactly when a carry did.
		return diff == x && b == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddNeverOverflows(t *testing.T) {
	// (D-1)^2 + (D-1) + (D-1) = D^2 - 1 exactly: the maximal case must not wrap.
	hi, lo := MulAdd(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
	if hi != 0xFFFFFFFF || lo != 0xFFFFFFFF {
		t.Fatalf("MulAdd max = (%#x,%#x), want (0xffffffff,0xffffffff)", hi, lo)
	}
}

func TestMulAddQuick(t *testing.T) {
	f := func(x, y, a, c uint32) bool {
		hi, lo := MulAdd(x, y, a, c)
		got := uint64(hi)<<32 | uint64(lo)
		want := uint64(x)*uint64(y) + uint64(a) + uint64(c)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestJoinSplit: Join packs hi above lo, so its high and low halves
// split back out unchanged.
func TestJoinSplit(t *testing.T) {
	f := func(hi, lo uint32) bool {
		v := Join(hi, lo)
		return uint32(v>>Bits) == hi && uint32(v) == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMatchesPaperNotation(t *testing.T) {
	// The paper writes <x1 x2> = x1*D + x2.
	if got := Join(3, 7); got != 3*Base+7 {
		t.Fatalf("Join(3,7) = %d, want %d", got, 3*Base+7)
	}
}

func TestBitHelpers(t *testing.T) {
	if TrailingZeros32(0) != 32 || LeadingZeros32(0) != 32 || Len32(0) != 0 {
		t.Fatal("zero-input conventions violated")
	}
	if TrailingZeros32(0b1101_0100) != 2 {
		t.Fatal("TrailingZeros32(0b11010100) != 2")
	}
	if Len32(0b1101_1111) != 8 {
		t.Fatal("Len32(0b11011111) != 8")
	}
	if LeadingZeros32(1<<31) != 0 {
		t.Fatal("LeadingZeros32(1<<31) != 0")
	}
}

func BenchmarkMulAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := r.Uint32()|1, r.Uint32()|1
	var hi, lo uint32
	for i := 0; i < b.N; i++ {
		hi, lo = MulAdd(x, y, lo, hi)
	}
	_ = hi
}
