package mpnat

import "bulkgcd/internal/word"

// This file implements the fused per-iteration update operations of
// Section IV of the paper. Each iteration of the word-level Euclidean
// algorithms reads X, reads Y and writes X once each, so the natural
// implementation shape is a single pass over the words from the least
// significant end, exactly as the paper's register-level listing does with
// its 64-bit temporary z. The rare beta > 0 update additionally re-reads Y,
// giving the paper's 4*s/d count.

// SubRshift sets n = rshift(x - y) and returns n. It requires x >= y; the
// difference of two odd numbers is even, so at least one bit is stripped
// when x != y. Aliasing n == x or n == y is allowed.
func (n *Nat) SubRshift(x, y *Nat) *Nat {
	return n.SubMulRshift(x, y, 1)
}

// SubMulRshift sets n = rshift(x - y*alpha) and returns n, the fused
// "X <- rshift(X - Y*alpha)" update of the Approximate (and Fast) Euclidean
// algorithms. It requires x >= y*alpha. alpha is a single d-bit word, as
// guaranteed by approx() for every case with more than two words.
//
// The subtraction and the trailing-zero strip happen in a single pass over
// the words, as in the register-level listing of Section IV: the shift
// distance is discovered at the first non-zero difference word and every
// subsequent output word is assembled from the current and pending
// difference words. Aliasing n == x or n == y is allowed: output position
// outIdx always trails the read position i, so in-place operation is safe.
func (n *Nat) SubMulRshift(x, y *Nat, alpha uint32) *Nat {
	lx, ly := len(x.w), len(y.w)
	if alpha == 0 {
		panic("mpnat: SubMulRshift with alpha == 0")
	}
	out := n.w
	if n != x && n != y {
		if cap(out) < lx {
			out = make([]uint32, lx)
		}
		out = out[:lx]
	} else if n == y {
		out = make([]uint32, lx)
	} else {
		out = out[:lx] // n == x: write in place behind the read cursor
	}
	var mulCarry uint32 // high word of y[i]*alpha carried into position i+1
	var borrow uint32
	var pending uint32 // high bits of the previous difference word, shifted
	var shift uint     // r mod d: the within-word strip distance
	started := false   // first non-zero difference word seen
	outIdx := 0
	for i := 0; i < lx; i++ {
		sub := mulCarry
		mulCarry = 0
		if i < ly {
			hi, lo := word.MulAdd(y.w[i], alpha, sub, 0)
			sub = lo
			mulCarry = hi
		}
		var d uint32
		d, borrow = word.Sub32(x.w[i], sub, borrow)
		if !started {
			if d == 0 {
				continue // whole-word part of the strip shift
			}
			started = true
			shift = uint(word.TrailingZeros32(d))
			pending = d >> shift
			continue
		}
		// Emit the completed output word: pending low bits plus the new
		// word's contribution (d << 32 is 0 in Go when shift == 0, which
		// is exactly right).
		out[outIdx] = pending | d<<(32-shift)
		outIdx++
		pending = d >> shift
	}
	if borrow != 0 || mulCarry != 0 {
		panic("mpnat: SubMulRshift underflow")
	}
	if started {
		out[outIdx] = pending
		outIdx++
	}
	n.w = out[:outIdx]
	n.norm()
	return n
}

// MulWord sets n = y*alpha and returns n. Aliasing n == y is allowed.
func (n *Nat) MulWord(y *Nat, alpha uint32) *Nat {
	if alpha == 0 || y.IsZero() {
		n.w = n.w[:0]
		return n
	}
	ly := len(y.w)
	out := n.w
	if cap(out) < ly+1 {
		out = make([]uint32, ly+1)
	} else {
		out = out[:ly+1]
	}
	var carry uint32
	for i := 0; i < ly; i++ {
		// In-place (n == y) is safe: position i is read before written.
		hi, lo := word.MulAdd(y.w[i], alpha, carry, 0)
		out[i] = lo
		carry = hi
	}
	out[ly] = carry
	n.w = out
	n.norm()
	return n
}

// SubMulShiftAddRshift sets n = rshift(x - y*alpha*D^beta + y) and returns
// n: the beta > 0 update of the Approximate Euclidean algorithm, which
// subtracts the even approximation alpha*D^beta minus one so that the result
// is even. It requires x >= y*alpha*D^beta and beta >= 1. As established in
// Section V this path runs with probability below 1e-8 for d = 32, so it is
// implemented by composition rather than as a fused single pass; the gcd
// layer accounts its memory cost as the paper's 4*s/d + O(1).
// Aliasing n == x or n == y is allowed.
func (n *Nat) SubMulShiftAddRshift(x, y *Nat, alpha uint32, beta int) *Nat {
	if beta < 1 {
		panic("mpnat: SubMulShiftAddRshift requires beta >= 1")
	}
	t := new(Nat).MulWord(y, alpha)
	t.Lshift(t, beta*word.Bits)
	t.Sub(x, t)
	t.Add(t, y)
	n.w = t.w
	return n.RshiftStrip(n)
}
