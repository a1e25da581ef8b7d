// Package mpnat implements multiprecision natural numbers stored in 32-bit
// words, together with the fused update operations that the Euclidean
// algorithms of the paper perform on them.
//
// Representation. A Nat stores its magnitude little-endian: word 0 is the
// least significant d-bit word. This matches Figure 1 of the paper read
// right-to-left; the paper's x1 (most significant word) is Words()[Len()-1]
// here. A Nat is always normalized: the top word of a non-zero Nat is
// non-zero, and zero is represented by an empty word slice.
//
// The GCD arithmetic deliberately does not depend on math/big: the point
// of the reproduction is the word-level implementation described in
// Section IV of the paper, including the exact per-iteration memory
// operation counts 3*s/d + O(1). The package holds only what the
// kernels run: compare, add and subtract, shifts, the fused updates
// (fused.go), MulWord, one long division (DivScratch, for Original and
// Fast Euclid), and the conversions. math/big enters only through the
// conversions. Products, tree divisions and the RSA layer's modular
// arithmetic live in math/big outright (internal/subprod, internal/rsakey).
package mpnat

import (
	"fmt"
	"math/big"
	"math/bits"
	"strconv"

	"bulkgcd/internal/word"
)

// Nat is a multiprecision natural number in base D = 2^32.
// The zero value is the number zero and is ready to use.
type Nat struct {
	w []uint32 // little-endian words, normalized (no trailing high zeros)
}

// New returns a Nat holding the given uint64 value.
func New(v uint64) *Nat {
	n := &Nat{}
	n.SetUint64(v)
	return n
}

// NewFromWords returns a Nat from little-endian words, copying and
// normalizing the slice.
func NewFromWords(ws []uint32) *Nat {
	n := &Nat{w: append([]uint32(nil), ws...)}
	n.norm()
	return n
}

// norm strips leading (most significant) zero words.
func (n *Nat) norm() {
	i := len(n.w)
	for i > 0 && n.w[i-1] == 0 {
		i--
	}
	n.w = n.w[:i]
}

// Len returns l_X, the number of significant d-bit words (0 for zero).
func (n *Nat) Len() int { return len(n.w) }

// Words exposes the normalized little-endian word slice. The slice aliases
// the Nat's storage and must not be modified by callers.
func (n *Nat) Words() []uint32 { return n.w }

// IsZero reports whether n == 0.
func (n *Nat) IsZero() bool { return len(n.w) == 0 }

// IsOne reports whether n == 1.
func (n *Nat) IsOne() bool { return len(n.w) == 1 && n.w[0] == 1 }

// IsEven reports whether n is even. Zero is even.
func (n *Nat) IsEven() bool { return len(n.w) == 0 || n.w[0]&1 == 0 }

// BitLen returns the number of bits in the minimal binary representation
// of n (0 for zero).
func (n *Nat) BitLen() int {
	if len(n.w) == 0 {
		return 0
	}
	return (len(n.w)-1)*word.Bits + word.Len32(n.w[len(n.w)-1])
}

// Grow ensures n has storage capacity for at least words words without
// changing its value, so that subsequent operations up to that size do not
// allocate.
func (n *Nat) Grow(words int) *Nat {
	if cap(n.w) < words {
		old := n.w
		n.w = make([]uint32, len(old), words)
		copy(n.w, old)
	}
	return n
}

// Set copies the value of x into n and returns n.
func (n *Nat) Set(x *Nat) *Nat {
	n.w = append(n.w[:0], x.w...)
	return n
}

// SetUint64 sets n to v and returns n.
func (n *Nat) SetUint64(v uint64) *Nat {
	n.w = n.w[:0]
	if lo := uint32(v); lo != 0 || v>>word.Bits != 0 {
		n.w = append(n.w, lo)
	}
	if hi := uint32(v >> word.Bits); hi != 0 {
		n.w = append(n.w, hi)
	}
	return n
}

// Uint64 returns the value of n, which must fit in 64 bits (Len <= 2).
// It panics otherwise; callers guard with Len().
func (n *Nat) Uint64() uint64 {
	switch len(n.w) {
	case 0:
		return 0
	case 1:
		return uint64(n.w[0])
	case 2:
		return word.Join(n.w[1], n.w[0])
	}
	panic(fmt.Sprintf("mpnat: Uint64 on %d-word Nat", len(n.w)))
}

// Clone returns a fresh copy of n with its own storage.
func (n *Nat) Clone() *Nat {
	return &Nat{w: append([]uint32(nil), n.w...)}
}

// SetWords sets n from little-endian words, copying into n's own storage
// (reused when capacity allows) and normalizing. The lane-batched kernel
// uses it to hand back retired results without allocating.
func (n *Nat) SetWords(ws []uint32) *Nat {
	n.w = append(n.w[:0], ws...)
	n.norm()
	return n
}

// Cmp compares n and x, returning -1, 0 or +1. Lengths are compared first
// and only on equal lengths are words inspected from the most significant
// end, exactly the "X < Y" procedure of Section IV.
func (n *Nat) Cmp(x *Nat) int {
	switch {
	case len(n.w) < len(x.w):
		return -1
	case len(n.w) > len(x.w):
		return +1
	}
	for i := len(n.w) - 1; i >= 0; i-- {
		switch {
		case n.w[i] < x.w[i]:
			return -1
		case n.w[i] > x.w[i]:
			return +1
		}
	}
	return 0
}

// Top2 returns the integer <x1 x2> formed by the two most significant words
// of n (just x1 when n has a single word), i.e. the operand of the paper's
// 64-bit approximate division. n must be non-zero.
func (n *Nat) Top2() uint64 {
	l := len(n.w)
	switch {
	case l == 0:
		panic("mpnat: Top2 of zero")
	case l == 1:
		return uint64(n.w[0])
	default:
		return word.Join(n.w[l-1], n.w[l-2])
	}
}

// TopWord returns the most significant word x1 of n. n must be non-zero.
func (n *Nat) TopWord() uint32 {
	if len(n.w) == 0 {
		panic("mpnat: TopWord of zero")
	}
	return n.w[len(n.w)-1]
}

// TrailingZeroBits returns the number of consecutive zero bits at the least
// significant end of n (0 for odd n; 0 for zero by convention).
func (n *Nat) TrailingZeroBits() int {
	for i, w := range n.w {
		if w != 0 {
			return i*word.Bits + word.TrailingZeros32(w)
		}
	}
	return 0
}

// Add sets n = x + y and returns n. Aliasing among n, x, y is allowed.
func (n *Nat) Add(x, y *Nat) *Nat {
	if len(x.w) < len(y.w) {
		x, y = y, x
	}
	out := n.w
	if cap(out) < len(x.w)+1 {
		out = make([]uint32, 0, len(x.w)+1)
	}
	out = out[:len(x.w)]
	var c uint32
	for i := range x.w {
		yi := uint32(0)
		if i < len(y.w) {
			yi = y.w[i]
		}
		// x may alias out; read x.w[i] before the write below.
		out[i], c = word.Add32(x.w[i], yi, c)
	}
	if c != 0 {
		out = append(out, c)
	}
	n.w = out
	n.norm()
	return n
}

// Sub sets n = x - y and returns n. It panics if x < y.
// Aliasing among n, x, y is allowed.
func (n *Nat) Sub(x, y *Nat) *Nat {
	if len(y.w) > len(x.w) {
		panic("mpnat: Sub underflow")
	}
	out := n.w
	if cap(out) < len(x.w) {
		out = make([]uint32, 0, len(x.w))
	}
	out = out[:len(x.w)]
	var b uint32
	for i := range x.w {
		yi := uint32(0)
		if i < len(y.w) {
			yi = y.w[i]
		}
		out[i], b = word.Sub32(x.w[i], yi, b)
	}
	if b != 0 {
		panic("mpnat: Sub underflow")
	}
	n.w = out
	n.norm()
	return n
}

// Rshift sets n = x >> k and returns n. Aliasing n == x is allowed.
func (n *Nat) Rshift(x *Nat, k int) *Nat {
	if k < 0 {
		panic("mpnat: negative shift")
	}
	drop := k / word.Bits
	bit := uint(k % word.Bits)
	if drop >= len(x.w) {
		n.w = n.w[:0]
		return n
	}
	src := x.w[drop:]
	out := n.w
	if cap(out) < len(src) {
		out = make([]uint32, 0, len(src))
	}
	out = out[:len(src)]
	if bit == 0 {
		copy(out, src)
	} else {
		for i := 0; i < len(src); i++ {
			lo := src[i] >> bit
			if i+1 < len(src) {
				lo |= src[i+1] << (uint(word.Bits) - bit)
			}
			out[i] = lo
		}
	}
	n.w = out
	n.norm()
	return n
}

// Lshift sets n = x << k and returns n. Aliasing n == x is allowed.
func (n *Nat) Lshift(x *Nat, k int) *Nat {
	if k < 0 {
		panic("mpnat: negative shift")
	}
	if x.IsZero() {
		n.w = n.w[:0]
		return n
	}
	grow := k / word.Bits
	bit := uint(k % word.Bits)
	oldLen := len(x.w)
	out := make([]uint32, oldLen+grow+1)
	if bit == 0 {
		copy(out[grow:], x.w)
	} else {
		var carry uint32
		for i := 0; i < oldLen; i++ {
			out[grow+i] = x.w[i]<<bit | carry
			carry = x.w[i] >> (uint(word.Bits) - bit)
		}
		out[grow+oldLen] = carry
	}
	n.w = out
	n.norm()
	return n
}

// RshiftStrip sets n = rshift(x): x with all trailing zero bits removed,
// the paper's rshift() function. rshift(0) = 0. Aliasing n == x is allowed.
func (n *Nat) RshiftStrip(x *Nat) *Nat {
	if x.IsZero() {
		n.w = n.w[:0]
		return n
	}
	return n.Rshift(x, x.TrailingZeroBits())
}

// DivScratch carries the working storage of a long division, so that hot
// loops (the per-iteration Mod of the Original Euclidean algorithm, the
// per-iteration DivMod of Fast) run without per-call allocation. A
// DivScratch is not safe for concurrent use; pools hold one per worker.
type DivScratch struct {
	u, v []uint32
	q    Nat // quotient storage for Mod, where the caller discards it
}

// grow resizes a scratch buffer to n words, reusing capacity.
func grow(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// DivMod sets q = x div y and r = x mod y without allocating when q, r
// and the scratch have sufficient capacity. y must be non-zero; q and r
// must not alias each other, x, or y.
func (s *DivScratch) DivMod(q, r, x, y *Nat) {
	divmodInto(q, r, x, y, s)
}

// Mod sets r = x mod y through the scratch; the quotient is discarded.
// y must be non-zero. r may alias x (the dividend is copied into the
// scratch before r is written) but must not alias y.
func (s *DivScratch) Mod(r, x, y *Nat) {
	divmodInto(&s.q, r, x, y, s)
}

// divmodInto is schoolbook base-2^32 long division (Knuth Algorithm D
// with a per-digit correction loop), the package's only long division:
// quotient and remainder land in the caller's Nats, every intermediate
// lives in the scratch.
func divmodInto(q, r, x, y *Nat, s *DivScratch) {
	if y.IsZero() {
		panic("mpnat: division by zero")
	}
	if x.Cmp(y) < 0 {
		q.w = q.w[:0]
		r.Set(x)
		return
	}
	if len(y.w) == 1 {
		divmodWordInto(q, r, x, y.w[0])
		return
	}
	shift := word.LeadingZeros32(y.w[len(y.w)-1])
	// u = x << shift with one extra high word; v = y << shift.
	s.u = grow(s.u, len(x.w)+2)
	s.v = grow(s.v, len(y.w)+1)
	uw := lshiftInto(s.u, x.w, shift)
	vw := lshiftInto(s.v, y.w, shift)
	nn := len(vw)
	m := len(uw) - nn
	uw = append(uw, 0)
	s.u = uw[:0]
	q.w = grow(q.w, m+1)
	qw := q.w
	vTop := uint64(vw[nn-1])
	vNext := uint64(vw[nn-2])
	for j := m; j >= 0; j-- {
		num := word.Join(uw[j+nn], uw[j+nn-1])
		qh := num / vTop
		rh := num % vTop
		for qh >= word.Base || qh*vNext > (rh<<word.Bits|uint64(uw[j+nn-2])) {
			qh--
			rh += vTop
			if rh >= word.Base {
				break
			}
		}
		var borrow uint32
		var mulCarry uint32
		for i := 0; i < nn; i++ {
			hi, lo := word.MulAdd(uint32(qh), vw[i], mulCarry, 0)
			uw[j+i], borrow = word.Sub32(uw[j+i], lo, borrow)
			mulCarry = hi
		}
		uw[j+nn], borrow = word.Sub32(uw[j+nn], mulCarry, borrow)
		if borrow != 0 {
			qh--
			var c uint32
			for i := 0; i < nn; i++ {
				uw[j+i], c = word.Add32(uw[j+i], vw[i], c)
			}
			uw[j+nn] += c
		}
		qw[j] = uint32(qh)
	}
	q.w = qw
	q.norm()
	// Remainder: uw[:nn] >> shift, into r without touching uw's backing
	// (r survives the next scratch reuse because Rshift copies).
	var rem Nat
	rem.w = uw[:nn]
	rem.norm()
	r.Rshift(&rem, shift)
}

// lshiftInto writes src << shift into dst (sized len(src)+1) and returns
// the normalized slice. shift < 32.
func lshiftInto(dst, src []uint32, shift int) []uint32 {
	n := len(src)
	dst = dst[:n+1]
	if shift == 0 {
		copy(dst, src)
		dst[n] = 0
	} else {
		var carry uint32
		for i := 0; i < n; i++ {
			dst[i] = src[i]<<shift | carry
			carry = src[i] >> (32 - shift)
		}
		dst[n] = carry
	}
	i := len(dst)
	for i > 0 && dst[i-1] == 0 {
		i--
	}
	return dst[:i]
}

// divmodWordInto divides x by a single non-zero word into q and r.
func divmodWordInto(q, r *Nat, x *Nat, y uint32) {
	q.w = grow(q.w, len(x.w))
	var rem uint64
	for i := len(x.w) - 1; i >= 0; i-- {
		cur := rem<<word.Bits | uint64(x.w[i])
		q.w[i] = uint32(cur / uint64(y))
		rem = cur % uint64(y)
	}
	q.norm()
	r.SetUint64(rem)
}

// wordsPerBig is how many 32-bit words one big.Word holds (2 on 64-bit
// platforms, 1 on 32-bit ones).
const wordsPerBig = bits.UintSize / word.Bits

// ToBig returns the value of n as a fresh big.Int. The conversion packs
// the word slice directly into big.Word limbs (O(n)), so routing a
// large multiplication through math/big costs two linear passes, not a
// quadratic shift-and-or loop.
func (n *Nat) ToBig() *big.Int {
	bw := make([]big.Word, (len(n.w)+wordsPerBig-1)/wordsPerBig)
	for i, w := range n.w {
		bw[i/wordsPerBig] |= big.Word(w) << ((i % wordsPerBig) * word.Bits)
	}
	return new(big.Int).SetBits(bw)
}

// SetBig sets n to the value of b, which must be non-negative, and
// returns n. Like ToBig it unpacks big.Word limbs directly (O(n)).
func (n *Nat) SetBig(b *big.Int) *Nat {
	if b.Sign() < 0 {
		panic("mpnat: SetBig of negative value")
	}
	bw := b.Bits()
	n.w = n.w[:0]
	n.Grow(len(bw) * wordsPerBig)
	for _, w := range bw {
		for k := 0; k < wordsPerBig; k++ {
			n.w = append(n.w, uint32(w>>(k*word.Bits)))
		}
	}
	n.norm()
	return n
}

// FromBig returns a Nat holding the value of b, which must be non-negative.
func FromBig(b *big.Int) *Nat {
	return new(Nat).SetBig(b)
}

// String formats n in decimal.
func (n *Nat) String() string { return n.ToBig().String() }

// Hex formats n as lowercase hexadecimal without leading zeros ("0" for
// 0). Corpus writers and journals emit one hex line per modulus or
// factor, so this appends digits directly instead of routing each word
// through fmt.
func (n *Nat) Hex() string {
	if n.IsZero() {
		return "0"
	}
	const digits = "0123456789abcdef"
	buf := make([]byte, 0, len(n.w)*8)
	buf = strconv.AppendUint(buf, uint64(n.w[len(n.w)-1]), 16)
	for i := len(n.w) - 2; i >= 0; i-- {
		for s := 28; s >= 0; s -= 4 {
			buf = append(buf, digits[(n.w[i]>>s)&0xf])
		}
	}
	return string(buf)
}

// ParseHex parses a hexadecimal string (no prefix) into a Nat.
func ParseHex(s string) (*Nat, error) {
	if s == "" {
		return nil, fmt.Errorf("mpnat: empty hex string")
	}
	b, ok := new(big.Int).SetString(s, 16)
	if !ok {
		return nil, fmt.Errorf("mpnat: invalid hex string %q", s)
	}
	if b.Sign() < 0 {
		return nil, fmt.Errorf("mpnat: negative hex string %q", s)
	}
	return FromBig(b), nil
}
