// Package rsakey is the RSA substrate of the reproduction: key generation,
// weak-key corpus construction with ground truth, and private-key recovery
// from a factored modulus.
//
// The paper evaluates on RSA moduli produced by the OpenSSL toolkit and on
// keys "collected from the Web" (some of which share primes because of bad
// randomness, the Lenstra et al. observation the paper cites). Neither is
// available offline, so this package synthesizes statistically equivalent
// corpora: balanced semiprimes with both prime top bits set (the OpenSSL
// shape, so an s-bit key really has s bits), with a configurable number of
// planted shared primes recorded as ground truth for validating the attack.
//
// Generation is deterministic from a seed so every experiment in
// EXPERIMENTS.md is reproducible bit for bit.
package rsakey

import (
	"fmt"
	"math/big"
	"math/rand"

	"bulkgcd/internal/mpnat"
)

// DefaultExponent is the standard RSA public exponent F4 = 65537.
const DefaultExponent = 65537

// Key is an RSA key as the attack sees it: the public part always present,
// the private part filled in at generation time (ground truth) or after a
// successful factorization.
type Key struct {
	// N is the modulus in the word representation the GCD engines consume.
	N *mpnat.Nat
	// E is the public exponent.
	E uint64
	// P and Q are the prime factors when known, nil otherwise.
	P, Q *big.Int
	// D is the private exponent when known, nil otherwise.
	D *big.Int
}

// Bits returns the modulus size in bits.
func (k *Key) Bits() int { return k.N.BitLen() }

// GeneratePrime returns a probable prime with exactly bits bits whose two
// top bits are set (so products of two such primes have exactly 2*bits
// bits, matching OpenSSL's RSA prime shape). Generation is deterministic
// from r.
func GeneratePrime(r *rand.Rand, bits int) *big.Int {
	if bits < 5 {
		panic("rsakey: prime size too small")
	}
	for {
		c := randBits(r, bits)
		c.SetBit(c, bits-1, 1)
		c.SetBit(c, bits-2, 1)
		c.SetBit(c, 0, 1)
		// Scan forward over odd candidates; re-draw after a while to keep
		// the distribution unremarkable.
		for i := 0; i < 64; i++ {
			if c.ProbablyPrime(32) {
				return c
			}
			c.Add(c, big.NewInt(2))
		}
	}
}

// randBits returns a uniform integer with at most bits bits.
func randBits(r *rand.Rand, bits int) *big.Int {
	words := (bits + 31) / 32
	v := new(big.Int)
	for i := 0; i < words; i++ {
		v.Lsh(v, 32)
		v.Or(v, new(big.Int).SetUint64(uint64(r.Uint32())))
	}
	excess := v.BitLen() - bits
	if excess > 0 {
		v.Rsh(v, uint(excess))
	}
	return v
}

// NewKey assembles a Key from two primes, computing N and D.
// It returns an error if e is not invertible modulo (p-1)(q-1).
func NewKey(p, q *big.Int, e uint64) (*Key, error) {
	d := privateExponent(p, q, e)
	if d == nil {
		return nil, fmt.Errorf("rsakey: e = %d not invertible mod phi", e)
	}
	n := new(big.Int).Mul(p, q)
	return &Key{N: mpnat.FromBig(n), E: e, P: p, Q: q, D: d}, nil
}

// privateExponent returns d = e^-1 mod (p-1)(q-1), the unique inverse in
// [0, phi), or nil when e is not invertible.
func privateExponent(p, q *big.Int, e uint64) *big.Int {
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	return new(big.Int).ModInverse(new(big.Int).SetUint64(e), phi)
}

// GenerateKey generates an RSA key with a modulus of exactly bits bits.
func GenerateKey(r *rand.Rand, bits int) (*Key, error) {
	if bits%2 != 0 {
		return nil, fmt.Errorf("rsakey: modulus size %d must be even", bits)
	}
	for {
		p := GeneratePrime(r, bits/2)
		q := GeneratePrime(r, bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		k, err := NewKey(p, q, DefaultExponent)
		if err != nil {
			continue // e divides phi; redraw
		}
		return k, nil
	}
}

// RecoverPrivate reconstructs the private key of a factored modulus: given
// n and one prime factor p, it computes q = n/p and d = e^-1 mod phi with
// math/big's ModInverse (the extended Euclidean algorithm), the step the
// paper describes as "the corresponding decryption key can be computed
// easily" once gcd reveals p. It errors if p does not divide n, the
// cofactor is trivial, q = p, or e is not invertible mod phi. For
// n = p² the formula's (p-1)² is not phi(n) = p(p-1), and a PKCS#1 key
// cannot hold two equal primes, so no key is returned.
func RecoverPrivate(n *big.Int, p *big.Int, e uint64) (d, q *big.Int, err error) {
	q, rem := new(big.Int).QuoRem(n, p, new(big.Int))
	if rem.Sign() != 0 {
		return nil, nil, fmt.Errorf("rsakey: %v does not divide the modulus", p)
	}
	if q.Cmp(big.NewInt(1)) == 0 || p.Cmp(big.NewInt(1)) == 0 {
		return nil, nil, fmt.Errorf("rsakey: trivial factorization")
	}
	if q.Cmp(p) == 0 {
		return nil, nil, fmt.Errorf("rsakey: p = q: the modulus is a square, not a product of two distinct primes")
	}
	if d = privateExponent(p, q, e); d == nil {
		return nil, nil, fmt.Errorf("rsakey: e not invertible mod phi")
	}
	return d, q, nil
}
