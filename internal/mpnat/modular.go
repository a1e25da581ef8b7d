package mpnat

import "sync"

// This file completes the arithmetic substrate with the modular operations
// the RSA layer needs: multiplication, modular exponentiation (RSA encrypt
// and decrypt are M^e mod n and C^d mod n) and the modular inverse via the
// extended Euclidean algorithm, which the paper points to for computing
// d = e^-1 mod (p-1)(q-1) once a modulus is factored. Division, the
// fused GCD updates and small products run on this package's word-level
// arithmetic; products whose shorter operand reaches bigMulWords go
// through math/big (mul.go).

// mulScratchPool backs Nat.Mul calls that arrive without a caller-owned
// MulScratch.
var mulScratchPool = sync.Pool{New: func() any { return new(MulScratch) }}

// Mul sets n = x * y and returns n. When the shorter operand has fewer
// than bigMulWords words the schoolbook loop runs into a fresh buffer;
// larger products take the math/big path of mul.go on a pooled
// MulScratch. Aliasing among n, x, y is allowed.
func (n *Nat) Mul(x, y *Nat) *Nat {
	lx, ly := len(x.w), len(y.w)
	if lx == 0 || ly == 0 {
		n.w = n.w[:0]
		return n
	}
	if min(lx, ly) < bigMulWords {
		// Small operands: one schoolbook pass into a fresh buffer
		// (aliasing-safe), no scratch needed.
		out := make([]uint32, lx+ly)
		basicMul(out, x.w, y.w)
		n.w = out
		n.norm()
		return n
	}
	s := mulScratchPool.Get().(*MulScratch)
	s.Mul(n, x, y)
	mulScratchPool.Put(s)
	return n
}

// Sqr sets n = x * x and returns n.
func (n *Nat) Sqr(x *Nat) *Nat { return n.Mul(x, x) }

// ModExp sets n = base^exp mod m and returns n, by left-to-right square
// and multiply with a full reduction after each step. m must be > 1.
// This is the straightforward (non-Montgomery) implementation: the attack
// uses it a handful of times per broken key, far off the hot path.
func (n *Nat) ModExp(base, exp, m *Nat) *Nat {
	if m.IsZero() || m.IsOne() {
		panic("mpnat: ModExp modulus must be > 1")
	}
	result := New(1)
	b := new(Nat).Mod(base, m)
	if exp.IsZero() {
		n.w = result.w
		return n
	}
	for i := exp.BitLen() - 1; i >= 0; i-- {
		result.Sqr(result)
		result.Mod(result, m)
		if exp.Bit(i) == 1 {
			result.Mul(result, b)
			result.Mod(result, m)
		}
	}
	n.w = result.w
	return n
}

// signed is a sign-and-magnitude integer for the extended Euclid
// coefficients.
type signed struct {
	mag Nat
	neg bool
}

func (s *signed) set(v *signed) {
	s.mag.Set(&v.mag)
	s.neg = v.neg
}

// subMulSigned sets s = a - q*b over signed values, with q a non-negative
// Nat. It allocates as needed; the extended Euclid runs O(bits) iterations
// so this is not a hot path.
func subMulSigned(a, b *signed, q *Nat) *signed {
	qb := new(Nat).Mul(q, &b.mag)
	out := &signed{}
	if a.neg == b.neg {
		// a - q*b = sign(a) * (|a| - q|b|): magnitudes subtract.
		if a.mag.Cmp(qb) >= 0 {
			out.mag.Sub(&a.mag, qb)
			out.neg = a.neg
		} else {
			out.mag.Sub(qb, &a.mag)
			out.neg = !a.neg
		}
	} else {
		// Signs differ: magnitudes add, sign of a.
		out.mag.Add(&a.mag, qb)
		out.neg = a.neg
	}
	if out.mag.IsZero() {
		out.neg = false
	}
	return out
}

// ModInverse sets n = a^-1 mod m and returns n, or returns nil when a and
// m are not coprime. m must be > 1. It runs the extended Euclidean
// algorithm ("extended Euclidean algorithm [13]" in the paper's key-setup
// description) tracking only the coefficient of a.
func (n *Nat) ModInverse(a, m *Nat) *Nat {
	if m.IsZero() || m.IsOne() {
		panic("mpnat: ModInverse modulus must be > 1")
	}
	r0 := new(Nat).Mod(a, m) // invariants: r0 = t0*a mod m, r1 = t1*a mod m
	r1 := new(Nat).Set(m)
	r0, r1 = r1, r0             // r0 = m, r1 = a mod m
	t0 := &signed{}             // coefficient of r0: 0
	t1 := &signed{mag: *New(1)} // coefficient of r1: 1
	for !r1.IsZero() {
		q, r := DivMod(r0, r1)
		r0.Set(r1)
		r1.Set(r)
		next := subMulSigned(t0, t1, q)
		t0.set(t1)
		t1.set(next)
	}
	if !r0.IsOne() {
		return nil // gcd(a, m) != 1
	}
	// t0 is the coefficient of a; normalize into [0, m).
	inv := new(Nat).Set(&t0.mag)
	if t0.neg {
		inv.Mod(inv, m)
		if !inv.IsZero() {
			inv.Sub(m, inv)
		}
	} else {
		inv.Mod(inv, m)
	}
	n.w = inv.w
	return n
}
