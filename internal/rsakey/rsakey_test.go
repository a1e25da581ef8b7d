package rsakey

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func TestGeneratePrimeShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bits := range []int{16, 32, 64, 128, 256} {
		for i := 0; i < 5; i++ {
			p := GeneratePrime(r, bits)
			if p.BitLen() != bits {
				t.Fatalf("prime has %d bits, want %d", p.BitLen(), bits)
			}
			if p.Bit(bits-2) != 1 {
				t.Fatalf("second-top bit not set")
			}
			if !p.ProbablyPrime(64) {
				t.Fatalf("not prime: %v", p)
			}
		}
	}
}

func TestGeneratePrimeDeterministic(t *testing.T) {
	a := GeneratePrime(rand.New(rand.NewSource(7)), 128)
	b := GeneratePrime(rand.New(rand.NewSource(7)), 128)
	if a.Cmp(b) != 0 {
		t.Fatal("same seed produced different primes")
	}
	c := GeneratePrime(rand.New(rand.NewSource(8)), 128)
	if a.Cmp(c) == 0 {
		t.Fatal("different seeds produced the same prime")
	}
}

func TestGenerateKey(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	k, err := GenerateKey(r, 256)
	if err != nil {
		t.Fatal(err)
	}
	if k.Bits() != 256 {
		t.Fatalf("modulus has %d bits, want 256", k.Bits())
	}
	n := new(big.Int).Mul(k.P, k.Q)
	if k.N.ToBig().Cmp(n) != 0 {
		t.Fatal("N != P*Q")
	}
	// ed = 1 mod phi.
	phi := new(big.Int).Mul(
		new(big.Int).Sub(k.P, big.NewInt(1)),
		new(big.Int).Sub(k.Q, big.NewInt(1)),
	)
	ed := new(big.Int).Mul(k.D, new(big.Int).SetUint64(k.E))
	if ed.Mod(ed, phi).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("e*d != 1 mod phi")
	}
	if _, err := GenerateKey(r, 255); err == nil {
		t.Fatal("odd modulus size accepted")
	}
}

// TestEncryptDecryptRoundTrip: a generated key's D inverts E, so textbook
// RSA (M^e mod n, then C^d mod n) returns every message.
func TestEncryptDecryptRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	k, err := GenerateKey(r, 256)
	if err != nil {
		t.Fatal(err)
	}
	n := k.N.ToBig()
	e := new(big.Int).SetUint64(k.E)
	for i := 0; i < 20; i++ {
		m := new(big.Int).Rand(r, n)
		c := new(big.Int).Exp(m, e, n)
		if new(big.Int).Exp(c, k.D, n).Cmp(m) != 0 {
			t.Fatalf("round trip failed for message %v", m)
		}
	}
}

func TestRecoverPrivate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	k, err := GenerateKey(r, 256)
	if err != nil {
		t.Fatal(err)
	}
	n := k.N.ToBig()
	d, q, err := RecoverPrivate(n, k.P, k.E)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cmp(k.Q) != 0 {
		t.Fatal("recovered wrong cofactor")
	}
	if d.Cmp(k.D) != 0 {
		t.Fatal("recovered wrong private exponent")
	}
	// The recovered key must actually decrypt.
	m := big.NewInt(0xC0FFEE)
	c := new(big.Int).Exp(m, new(big.Int).SetUint64(k.E), n)
	if new(big.Int).Exp(c, d, n).Cmp(m) != 0 {
		t.Fatal("recovered key does not decrypt")
	}
	// Error paths.
	if _, _, err := RecoverPrivate(n, big.NewInt(17), k.E); err == nil {
		t.Fatal("non-divisor accepted")
	}
	if _, _, err := RecoverPrivate(n, big.NewInt(1), k.E); err == nil {
		t.Fatal("trivial factor accepted")
	}
	if _, _, err := RecoverPrivate(n, n, k.E); err == nil {
		t.Fatal("n itself accepted as factor")
	}
	// n = p²: (p-1)² is not phi(p²) = p(p-1), and no PKCS#1 key holds
	// p = q, so there is no private key to return.
	if _, _, err := RecoverPrivate(new(big.Int).Mul(k.P, k.P), k.P, k.E); err == nil || !strings.Contains(err.Error(), "p = q") {
		t.Fatalf("RecoverPrivate of p²: err = %v, want p = q", err)
	}
}

// TestExponentNotInvertible reaches the error branch of NewKey and of
// RecoverPrivate: with e = 3 and a prime p = 1 (mod 3), 3 divides p-1 and
// so phi, and no private exponent exists.
func TestExponentNotInvertible(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var p, q *big.Int
	for p == nil || q == nil {
		c := GeneratePrime(r, 64)
		switch m := new(big.Int).Mod(c, big.NewInt(3)).Int64(); {
		case m == 1 && p == nil:
			p = c
		case m == 2 && q == nil:
			q = c
		}
	}
	if _, err := NewKey(p, q, 3); err == nil || !strings.Contains(err.Error(), "not invertible") {
		t.Fatalf("NewKey with 3 | p-1: err = %v, want not invertible", err)
	}
	n := new(big.Int).Mul(p, q)
	for _, f := range []*big.Int{p, q} {
		if _, _, err := RecoverPrivate(n, f, 3); err == nil || !strings.Contains(err.Error(), "not invertible") {
			t.Fatalf("RecoverPrivate with 3 | p-1: err = %v, want not invertible", err)
		}
	}
	// The same primes take e = 65537, so the failure is the exponent's.
	if _, err := NewKey(p, q, DefaultExponent); err != nil {
		t.Fatalf("NewKey with e = 65537: %v", err)
	}
}

func TestGenerateCorpusRealWithWeakPairs(t *testing.T) {
	spec := CorpusSpec{Count: 12, Bits: 128, WeakPairs: 3, Seed: 5}
	c, err := GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Keys) != 12 || len(c.Planted) != 3 {
		t.Fatalf("got %d keys, %d planted", len(c.Keys), len(c.Planted))
	}
	seen := map[int]bool{}
	for _, pp := range c.Planted {
		if pp.I >= pp.J {
			t.Fatalf("planted pair not ordered: %d,%d", pp.I, pp.J)
		}
		if seen[pp.I] || seen[pp.J] {
			t.Fatal("a modulus participates in two planted pairs")
		}
		seen[pp.I], seen[pp.J] = true, true
		ni, nj := c.Keys[pp.I].N.ToBig(), c.Keys[pp.J].N.ToBig()
		g := new(big.Int).GCD(nil, nil, ni, nj)
		if g.Cmp(pp.P) != 0 {
			t.Fatalf("gcd of planted pair = %v, want %v", g, pp.P)
		}
	}
	// Non-planted pairs must be coprime (real semiprimes).
	for i := 0; i < len(c.Keys); i++ {
		for j := i + 1; j < len(c.Keys); j++ {
			planted := false
			for _, pp := range c.Planted {
				if pp.I == i && pp.J == j {
					planted = true
				}
			}
			if planted {
				continue
			}
			g := new(big.Int).GCD(nil, nil, c.Keys[i].N.ToBig(), c.Keys[j].N.ToBig())
			if g.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("unplanted pair (%d,%d) shares factor %v", i, j, g)
			}
		}
	}
	// All moduli have the requested size.
	for i, k := range c.Keys {
		if k.Bits() != 128 {
			t.Fatalf("key %d has %d bits", i, k.Bits())
		}
	}
}

func TestGenerateCorpusPseudo(t *testing.T) {
	spec := CorpusSpec{Count: 64, Bits: 1024, WeakPairs: 2, Seed: 6, Pseudo: true}
	c, err := GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range c.Keys {
		if k.Bits() != 1024 {
			t.Fatalf("pseudo key %d has %d bits", i, k.Bits())
		}
		if k.N.IsEven() {
			t.Fatalf("pseudo key %d is even", i)
		}
	}
	// Planted primes divide the gcd (the gcd may pick up small extra
	// factors of the pseudo cofactors).
	for _, pp := range c.Planted {
		g := new(big.Int).GCD(nil, nil, c.Keys[pp.I].N.ToBig(), c.Keys[pp.J].N.ToBig())
		if new(big.Int).Mod(g, pp.P).Sign() != 0 {
			t.Fatalf("planted prime does not divide pair gcd")
		}
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	spec := CorpusSpec{Count: 8, Bits: 64, WeakPairs: 1, Seed: 9}
	a, err := GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Keys {
		if a.Keys[i].N.Cmp(b.Keys[i].N) != 0 {
			t.Fatalf("corpus not deterministic at key %d", i)
		}
	}
}

func TestGenerateCorpusValidation(t *testing.T) {
	if _, err := GenerateCorpus(CorpusSpec{Count: 0, Bits: 64}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := GenerateCorpus(CorpusSpec{Count: 4, Bits: 63}); err == nil {
		t.Error("odd bits accepted")
	}
	if _, err := GenerateCorpus(CorpusSpec{Count: 3, Bits: 64, WeakPairs: 2}); err == nil {
		t.Error("too many weak pairs accepted")
	}
}

func TestModuliAccessor(t *testing.T) {
	c, err := GenerateCorpus(CorpusSpec{Count: 5, Bits: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ms := c.Moduli()
	if len(ms) != 5 {
		t.Fatalf("got %d moduli", len(ms))
	}
	for i := range ms {
		if ms[i].Cmp(c.Keys[i].N) != 0 {
			t.Fatal("Moduli() order mismatch")
		}
	}
}

func BenchmarkGenerateKey256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKey(r, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratePseudoCorpus1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCorpus(CorpusSpec{Count: 128, Bits: 1024, Seed: int64(i), Pseudo: true}); err != nil {
			b.Fatal(err)
		}
	}
}
