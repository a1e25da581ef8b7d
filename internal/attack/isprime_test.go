package attack

import (
	"math/big"
	"math/rand"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/rsakey"
)

// mrBases are the first twelve primes. A Miller–Rabin round to each of
// them decides primality exactly below ψ13 = 3317044064679887385961981
// (about 3.3·10^24), so for every 64-bit input in particular.
var mrBases = []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// strongProbablePrime reports whether the odd n > a passes one
// Miller–Rabin round to base a.
func strongProbablePrime(n *big.Int, a int64) bool {
	nm1 := new(big.Int).Sub(n, big.NewInt(1))
	s := nm1.TrailingZeroBits()
	x := new(big.Int).Exp(big.NewInt(a), new(big.Int).Rsh(nm1, s), n)
	if x.BitLen() == 1 || x.Cmp(nm1) == 0 { // x = 1 or x = n-1
		return true
	}
	for i := uint(1); i < s; i++ {
		if x.Mul(x, x).Mod(x, n).Cmp(nm1) == 0 {
			return true
		}
	}
	return false
}

// millerRabin37 is the tests' own primality oracle, independent of
// math/big's: trial division by mrBases, then a Miller–Rabin round to
// each of them. It is exact below about 3.3·10^24.
func millerRabin37(n *big.Int) bool {
	if n.Cmp(big.NewInt(2)) < 0 {
		return false
	}
	for _, a := range mrBases {
		b := big.NewInt(a)
		if n.Cmp(b) == 0 {
			return true
		}
		if new(big.Int).Mod(n, b).Sign() == 0 {
			return false
		}
	}
	for _, a := range mrBases {
		if !strongProbablePrime(n, a) {
			return false
		}
	}
	return true
}

// pseudoprimes are composites that fool weaker tests than IsPrime's.
// factors is each one's factorization, which proves it composite.
// mrUpTo is the largest prime base up to which every prime base passes
// a Miller–Rabin round (0 for none); carmichael marks the Carmichael
// numbers.
var pseudoprimes = []struct {
	n          string
	factors    []int64
	mrUpTo     int64
	carmichael bool
}{
	// Strong pseudoprimes to base 2.
	{"2047", []int64{23, 89}, 2, false},
	{"3277", []int64{29, 113}, 2, false},
	{"4033", []int64{37, 109}, 2, false},
	{"4681", []int64{31, 151}, 2, false},
	{"8321", []int64{53, 157}, 2, false},
	{"15841", []int64{7, 31, 73}, 2, false},
	{"29341", []int64{13, 37, 61}, 2, false},
	{"42799", []int64{127, 337}, 2, false},
	// Carmichael numbers: Fermat pseudoprimes to every coprime base.
	{"561", []int64{3, 11, 17}, 0, true},
	{"1105", []int64{5, 13, 17}, 0, true},
	{"1729", []int64{7, 13, 19}, 0, true},
	{"2465", []int64{5, 17, 29}, 0, true},
	{"2821", []int64{7, 13, 31}, 0, true},
	{"6601", []int64{7, 23, 41}, 0, true},
	{"8911", []int64{7, 19, 67}, 0, true},
	{"41041", []int64{7, 11, 13, 41}, 0, true},
	// Strong Lucas pseudoprimes (Selfridge's parameters).
	{"5459", []int64{53, 103}, 0, false},
	{"5777", []int64{53, 109}, 0, false},
	{"10877", []int64{73, 149}, 0, false},
	{"16109", []int64{89, 181}, 0, false},
	{"18971", []int64{61, 311}, 0, false},
	{"22499", []int64{149, 151}, 0, false},
	// Strong pseudoprimes to every prime base up to 31 or 37: any
	// Miller–Rabin test over those fixed bases accepts them.
	{"3825123056546413051", []int64{149491, 747451, 34233211}, 31, false},
	{"318665857834031151167461", []int64{399165290221, 798330580441}, 37, false},
	{"3317044064679887385961981", []int64{1287836182261, 2575672364521}, 37, false},
}

// TestIsPrimeRejectsPseudoprimes: IsPrime rejects each classic
// pseudoprime. The test first proves each one composite from its
// factors, checks the Carmichael numbers against Korselt's criterion,
// and checks that the strong pseudoprimes pass millerRabin37's rounds to
// the bases they are listed against.
func TestIsPrimeRejectsPseudoprimes(t *testing.T) {
	one := big.NewInt(1)
	for _, c := range pseudoprimes {
		n, ok := new(big.Int).SetString(c.n, 10)
		if !ok {
			t.Fatalf("bad literal %q", c.n)
		}
		nm1 := new(big.Int).Sub(n, one)
		prod := big.NewInt(1)
		for i, f := range c.factors {
			if f < 2 || (i > 0 && f <= c.factors[i-1]) {
				t.Fatalf("%s: factors %v are not ascending proper factors", c.n, c.factors)
			}
			prod.Mul(prod, big.NewInt(f))
			// Korselt: a squarefree n (strictly ascending prime factors)
			// is a Carmichael number iff p-1 divides n-1 for every p | n.
			if c.carmichael && new(big.Int).Mod(nm1, big.NewInt(f-1)).Sign() != 0 {
				t.Fatalf("%s: %d-1 does not divide n-1, not a Carmichael number", c.n, f)
			}
		}
		if len(c.factors) < 2 || prod.Cmp(n) != 0 {
			t.Fatalf("%s: factors %v do not multiply to it", c.n, c.factors)
		}
		for _, a := range mrBases {
			if a <= c.mrUpTo && !strongProbablePrime(n, a) {
				t.Fatalf("%s: fails a Miller–Rabin round to base %d", c.n, a)
			}
		}
		if IsPrime(n) {
			t.Errorf("IsPrime(%s) = true", c.n)
		}
	}
}

// TestIsPrimeMatchesSieve: IsPrime agrees with a sieve of Eratosthenes
// on every n < 2^16.
func TestIsPrimeMatchesSieve(t *testing.T) {
	const limit = 1 << 16
	composite := make([]bool, limit)
	composite[0], composite[1] = true, true
	for i := 2; i*i < limit; i++ {
		if !composite[i] {
			for j := i * i; j < limit; j += i {
				composite[j] = true
			}
		}
	}
	v := new(big.Int)
	for n := 0; n < limit; n++ {
		if IsPrime(v.SetInt64(int64(n))) == composite[n] {
			t.Fatalf("IsPrime(%d) = %v, the sieve says %v", n, composite[n], !composite[n])
		}
	}
}

// FuzzIsPrime checks IsPrime differentially: on every 64-bit x it agrees
// with millerRabin37, which is exact there, and it rejects the product of
// any two integers above 1 (each at most 64 bytes, to bound the cost).
func FuzzIsPrime(f *testing.F) {
	bytesOf := func(s string) []byte {
		v, _ := new(big.Int).SetString(s, 10)
		return v.Bytes()
	}
	f.Add(uint64(2047), []byte{3}, []byte{5})
	f.Add(uint64(3825123056546413051), bytesOf("399165290221"), bytesOf("798330580441"))
	f.Add(uint64(18446744073709551557), bytesOf("2305843009213693951"), bytesOf("2305843009213693951"))
	f.Add(uint64(1), bytesOf("1287836182261"), bytesOf("2575672364521"))
	f.Fuzz(func(t *testing.T, x uint64, a, b []byte) {
		v := new(big.Int).SetUint64(x)
		if got, want := IsPrime(v), millerRabin37(v); got != want {
			t.Fatalf("IsPrime(%d) = %v, Miller–Rabin to bases 2…37 says %v", x, got, want)
		}
		if len(a) > 64 || len(b) > 64 {
			return
		}
		m, n := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		if m.BitLen() < 2 || n.BitLen() < 2 {
			return
		}
		if mn := new(big.Int).Mul(m, n); IsPrime(mn) {
			t.Fatalf("IsPrime(%v·%v) = true", m, n)
		}
	})
}

// chernick draws a Chernick Carmichael number C = (6k+1)(12k+1)(18k+1)
// with a 60-bit k from r (about 190 bits), with its three prime factors.
func chernick(r *rand.Rand) (*big.Int, [3]*big.Int) {
	for {
		k := big.NewInt(r.Int63n(1<<59) + 1<<59)
		var fs [3]*big.Int
		prime := true
		for i, m := range []int64{6, 12, 18} {
			fs[i] = new(big.Int).Mul(k, big.NewInt(m))
			fs[i].Add(fs[i], big.NewInt(1))
			if prime = fs[i].ProbablyPrime(20); !prime {
				break
			}
		}
		if prime {
			c := new(big.Int).Mul(fs[0], fs[1])
			return c.Mul(c, fs[2]), fs
		}
	}
}

// TestCarmichaelFactorGetsNoD: keys C·q₁ and C·q₂ that share a Chernick
// Carmichael number C are both broken on every engine, and neither gets
// a D, because IsPrime rejects C. A round-trip check on the key would
// not have told: λ(C) divides C−1, so the d computed as if C were prime
// gives x^(ed) ≡ x (mod n) for every x, which the test asserts.
func TestCarmichaelFactorGetsNoD(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	c, fs := chernick(r)
	if IsPrime(c) {
		t.Fatalf("IsPrime accepts the Carmichael number %v = %v·%v·%v", c, fs[0], fs[1], fs[2])
	}
	// q a few bits shorter than C keeps C above the s/2 early-termination
	// threshold of the pairs engine.
	bits := c.BitLen() - 8
	q1, q2 := rsakey.GeneratePrime(r, bits), rsakey.GeneratePrime(r, bits)
	n1, n2 := new(big.Int).Mul(c, q1), new(big.Int).Mul(c, q2)
	filler, err := rsakey.GenerateKey(r, 2*bits)
	if err != nil {
		t.Fatal(err)
	}
	moduli := []*mpnat.Nat{mpnat.FromBig(n1), filler.N, mpnat.FromBig(n2)}
	for _, k := range []engine.Kind{engine.Pairs, engine.Hybrid, engine.Batch} {
		opt := DefaultOptions()
		opt.Engine = k
		rep, err := Run(moduli, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Broken) != 2 || rep.Broken[0].Index != 0 || rep.Broken[1].Index != 2 {
			t.Fatalf("%v: broken %+v, want keys 0 and 2", k, rep.Broken)
		}
		for i, q := range []*big.Int{q1, q2} {
			bk := rep.Broken[i]
			if bk.P.Cmp(q) != 0 || bk.Q.Cmp(c) != 0 {
				t.Fatalf("%v: key %d factored as %v·%v, want %v·%v", k, bk.Index, bk.P, bk.Q, q, c)
			}
			if bk.D != nil {
				t.Fatalf("%v: key %d got a D with the composite factor %v", k, bk.Index, c)
			}
		}
	}

	e := big.NewInt(rsakey.DefaultExponent)
	for _, n := range []*big.Int{n1, n2} {
		d, _, err := rsakey.RecoverPrivate(n, c, rsakey.DefaultExponent)
		if err != nil {
			t.Fatal(err)
		}
		ed := new(big.Int).Mul(e, d)
		for i := 0; i < 20; i++ {
			x := new(big.Int).Rand(r, n)
			if new(big.Int).Exp(x, ed, n).Cmp(x) != 0 {
				t.Fatalf("round trip rejects x = %v mod %v; it would have caught C", x, n)
			}
		}
	}
}

// TestSquareModulusGetsNoD: in the corpus {p², p·q, s·u} the square
// shares p with p·q, so both are broken on every engine, but p² comes
// back with P = Q = p and no D: its φ is p(p−1), not (p−1)², and a
// PKCS#1 key cannot hold two equal primes. p·q keeps a D that decrypts.
func TestSquareModulusGetsNoD(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	prime := func() *big.Int { return rsakey.GeneratePrime(r, 128) }
	p, q, s, u := prime(), prime(), prime(), prime()
	moduli := []*mpnat.Nat{
		mpnat.FromBig(new(big.Int).Mul(p, p)),
		mpnat.FromBig(new(big.Int).Mul(p, q)),
		mpnat.FromBig(new(big.Int).Mul(s, u)),
	}
	for _, k := range []engine.Kind{engine.Pairs, engine.Hybrid, engine.Batch} {
		opt := DefaultOptions()
		opt.Engine = k
		rep, err := Run(moduli, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Broken) != 2 {
			t.Fatalf("%v: broken %+v, want keys 0 and 1", k, rep.Broken)
		}
		sq, pq := rep.Broken[0], rep.Broken[1]
		if sq.Index != 0 || sq.P.Cmp(p) != 0 || sq.Q.Cmp(p) != 0 || sq.D != nil {
			t.Fatalf("%v: square key %+v, want index 0, P = Q = p, no D", k, sq)
		}
		if pq.Index != 1 || pq.D == nil {
			t.Fatalf("%v: key %+v, want index 1 with a D", k, pq)
		}
		m := big.NewInt(0xC0FFEE)
		ct := new(big.Int).Exp(m, big.NewInt(rsakey.DefaultExponent), pq.N)
		if new(big.Int).Exp(ct, pq.D, pq.N).Cmp(m) != 0 {
			t.Fatalf("%v: key 1's D does not decrypt", k)
		}
	}
}
