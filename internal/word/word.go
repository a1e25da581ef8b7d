// Package word provides the d = 32-bit word-level primitives on which the
// multiprecision arithmetic of this repository is built.
//
// The paper ("Bulk GCD Computation Using a GPU to Break Weak RSA Keys",
// Fujita, Nakano, Ito; IPDPSW 2015) stores all large numbers in d-bit words
// with d = 32 and relies on three hardware facilities: 32-bit addition and
// subtraction with carry/borrow, 32x32 -> 64-bit multiplication, and a single
// 64-bit division used by the approx() quotient approximation. This package
// wraps the first two (via math/bits) with names that match the paper's
// usage, so the higher layers read like the pseudo code in Sections III-IV;
// the 64-bit division is Go's native uint64 division.
package word

import "math/bits"

// Bits is the word size d used throughout the repository.
const Bits = 32

// Base is D = 2^d, the radix of the multiword representation, as a uint64.
const Base = uint64(1) << Bits

// Mask extracts the low d bits of a 64-bit intermediate.
const Mask = Base - 1

// Add32 returns the d-bit sum x + y + carry and the outgoing carry.
// carry must be 0 or 1.
func Add32(x, y, carry uint32) (sum, carryOut uint32) {
	return bits.Add32(x, y, carry)
}

// Sub32 returns the d-bit difference x - y - borrow and the outgoing borrow.
// borrow must be 0 or 1.
func Sub32(x, y, borrow uint32) (diff, borrowOut uint32) {
	return bits.Sub32(x, y, borrow)
}

// MulAdd returns x*y + a + carry as (hi, lo). The result never overflows
// 2d bits: (D-1)^2 + 2(D-1) = D^2 - 1.
func MulAdd(x, y, a, carry uint32) (hi, lo uint32) {
	p := uint64(x)*uint64(y) + uint64(a) + uint64(carry)
	return uint32(p >> Bits), uint32(p)
}

// Join forms the 2d-bit value x1*D + x2 from two words, mirroring the
// paper's notation  <x1 x2>  for the integer represented by the two most
// significant words of a number.
func Join(x1, x2 uint32) uint64 {
	return uint64(x1)<<Bits | uint64(x2)
}

// TrailingZeros32 returns the number of trailing zero bits in x
// (32 when x == 0).
func TrailingZeros32(x uint32) int {
	return bits.TrailingZeros32(x)
}

// LeadingZeros32 returns the number of leading zero bits in x
// (32 when x == 0).
func LeadingZeros32(x uint32) int {
	return bits.LeadingZeros32(x)
}

// Len32 returns the minimum number of bits required to represent x
// (0 when x == 0).
func Len32(x uint32) int {
	return bits.Len32(x)
}
