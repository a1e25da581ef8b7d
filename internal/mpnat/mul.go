package mpnat

import (
	"math/big"

	"bulkgcd/internal/word"
)

// This file holds the package's multiplication. Its callers are the RSA
// layer's modular operations (ModExp, ModInverse, the Montgomery setup),
// whose operands reach twice a modulus length; product trees multiply in
// math/big directly (internal/subprod). math/big's assembly inner loops
// beat any portable word loop from a few dozen words, so Mul has
// exactly two paths:
//
//	shorter operand < bigMulWords     schoolbook (basicMul)
//	shorter operand >= bigMulWords    math/big round trip
//
// The round trip packs both operands into big.Int limbs (O(n) each way,
// see ToBigInto and SetBig), multiplies, and unpacks the product. The
// GCD kernels never multiply, so the paper's d = 32 word layout is
// untouched either way.

// bigMulWords is the shorter-operand size, in 32-bit words, from which
// Mul routes through math/big. BenchmarkMulThresholds sweeps schoolbook
// against the round trip at 8..64 words: on balanced operands the two
// draw level between 12 and 20 words, and from 24 words (768 bits) the
// round trip leads at every shape. Below the cutoff the most either
// path could gain is a few hundred nanoseconds (DESIGN.md section 5f).
const bigMulWords = 24

// MulScratch is the working storage of a multiplication: the big.Int
// operands of the math/big path and the product buffer of an aliased
// schoolbook multiplication. A warm scratch multiplies without
// allocating. A MulScratch is not safe for concurrent use. The zero
// value is ready to use.
type MulScratch struct {
	x, y, z big.Int
	tmp     []uint32
}

// Mul sets z = x*y and returns z. Aliasing among z, x, y is allowed.
func (s *MulScratch) Mul(z, x, y *Nat) *Nat {
	lx, ly := len(x.w), len(y.w)
	if lx == 0 || ly == 0 {
		z.w = z.w[:0]
		return z
	}
	if min(lx, ly) >= bigMulWords {
		return s.bigMul(z, x, y)
	}
	if z != x && z != y {
		z.w = grow(z.w, lx+ly)
		basicMul(z.w, x.w, y.w)
	} else {
		s.tmp = grow(s.tmp, lx+ly)
		basicMul(s.tmp, x.w, y.w)
		z.w = append(z.w[:0], s.tmp...)
	}
	z.norm()
	return z
}

// bigMul is the math/big path of Mul: both operands are packed into the
// scratch's big.Ints before z is written, so aliasing is safe.
func (s *MulScratch) bigMul(z, x, y *Nat) *Nat {
	x.ToBigInto(&s.x)
	y.ToBigInto(&s.y)
	return z.SetBig(s.z.Mul(&s.x, &s.y))
}

// basicMul is the schoolbook O(n*m) loop, writing x*y into dst
// (len(x)+len(y) words, fully overwritten).
func basicMul(dst, x, y []uint32) {
	clear(dst)
	for i := 0; i < len(x); i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		var carry uint32
		for j := 0; j < len(y); j++ {
			hi, lo := word.MulAdd(xi, y[j], dst[i+j], carry)
			dst[i+j] = lo
			carry = hi
		}
		dst[i+len(y)] = carry
	}
}
