// Package bulkgcd breaks weak RSA keys by bulk GCD computation, a Go
// reproduction of "Bulk GCD Computation Using a GPU to Break Weak RSA
// Keys" (Fujita, Nakano, Ito; IEEE IPDPSW 2015).
//
// The package exposes three layers:
//
//   - Pairwise GCD with the paper's algorithms ([GCD], [GCDWith]): the
//     contribution is the Approximate Euclidean algorithm, which converges
//     like the quotient-based Euclid while paying only one 64-bit division
//     per iteration.
//
//   - The attack ([New], [Attack.Run]): GCD over all pairs of a corpus of
//     RSA moduli, factoring every pair that shares a prime and
//     reconstructing the private keys. Three engines are available
//     ([EnginePairs], [EngineBatch], [EngineHybrid]) behind one
//     functional-options API:
//
//     rep, err := bulkgcd.New(
//     bulkgcd.WithEngine(bulkgcd.EngineHybrid),
//     bulkgcd.WithWorkers(8),
//     ).Run(ctx, moduli)
//
//   - Corpus utilities ([GenerateWeakCorpus], [ReadCorpus], [WriteCorpus])
//     to synthesize and exchange key sets with planted weak pairs.
//
// The GPU of the paper is replaced by two faithful substitutes, available
// through the internal packages and the cmd/ tools: a host-parallel bulk
// executor (goroutine pool, zero allocation per pair) and a simulator of
// the UMM model the paper itself uses to analyse GPU memory behaviour.
package bulkgcd

import (
	"fmt"
	"io"
	"math/big"

	"bulkgcd/internal/corpus"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/rsakey"
)

// Algorithm selects a GCD algorithm. The zero value is Approximate, the
// paper's contribution and the recommended default.
type Algorithm int

const (
	// Approximate is (E), the paper's Approximate Euclidean algorithm.
	// It is the zero value, the default, and the fastest on every input
	// size.
	Approximate Algorithm = iota
	// Original is (A), the classical modulo-based Euclid.
	Original
	// Fast is (B), exact-quotient Euclid with odd quotients and rshift.
	Fast
	// Binary is (C), Stein's subtract-and-halve algorithm.
	Binary
	// FastBinary is (D), subtract-and-strip-zeros.
	FastBinary
)

// internalAlg maps the public enum onto the engine's (A)-(E) ids.
func (a Algorithm) internalAlg() (gcd.Algorithm, error) {
	switch a {
	case Approximate:
		return gcd.Approximate, nil
	case Original:
		return gcd.Original, nil
	case Fast:
		return gcd.Fast, nil
	case Binary:
		return gcd.Binary, nil
	case FastBinary:
		return gcd.FastBinary, nil
	default:
		return 0, fmt.Errorf("bulkgcd: unknown algorithm %d", int(a))
	}
}

// String returns the algorithm name.
func (a Algorithm) String() string {
	ia, err := a.internalAlg()
	if err != nil {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return ia.String()
}

// Letter returns the paper's (A)-(E) label for the algorithm.
func (a Algorithm) Letter() string {
	ia, err := a.internalAlg()
	if err != nil {
		return "?"
	}
	return ia.Letter()
}

// Algorithms lists all five algorithms in the paper's (A)-(E) order.
var Algorithms = []Algorithm{Original, Fast, Binary, FastBinary, Approximate}

// Stats reports what a GCD computation did.
type Stats struct {
	// Iterations counts do-while iterations of the core loop.
	Iterations int
	// BetaNonZero counts Approximate iterations on the rare beta > 0 path.
	BetaNonZero int
	// MemOps counts word-level memory operations (Section IV accounting).
	MemOps int64
}

// GCD returns the greatest common divisor of x and y, computed with the
// Approximate Euclidean algorithm. Unlike the core loops, it accepts any
// integers: signs are ignored and even inputs are reduced by the
// factor-of-two identities of Section II. GCD(0, 0) = 0.
func GCD(x, y *big.Int) *big.Int {
	g, _, err := GCDWith(Approximate, x, y)
	if err != nil {
		// The only error paths are invalid algorithms; Approximate is valid.
		panic("bulkgcd: " + err.Error())
	}
	return g
}

// GCDWith is GCD with an explicit algorithm choice and statistics.
func GCDWith(alg Algorithm, x, y *big.Int) (*big.Int, Stats, error) {
	ialg, err := alg.internalAlg()
	if err != nil {
		return nil, Stats{}, err
	}
	ax := new(big.Int).Abs(x)
	ay := new(big.Int).Abs(y)
	switch {
	case ax.Sign() == 0:
		return ay, Stats{}, nil
	case ay.Sign() == 0:
		return ax, Stats{}, nil
	}
	// gcd(X, Y) = 2^k * gcd(X >> tzx, Y >> tzy) with k = min(tzx, tzy):
	// the Section II reduction to odd inputs.
	tzx := trailingZeros(ax)
	tzy := trailingZeros(ay)
	k := tzx
	if tzy < k {
		k = tzy
	}
	ax.Rsh(ax, uint(tzx))
	ay.Rsh(ay, uint(tzy))
	g, st := gcd.Compute(ialg, mpnat.FromBig(ax), mpnat.FromBig(ay), gcd.Options{})
	out := g.ToBig()
	out.Lsh(out, uint(k))
	return out, Stats{Iterations: st.Iterations, BetaNonZero: st.BetaNonZero, MemOps: st.MemOps}, nil
}

func trailingZeros(v *big.Int) int {
	k := 0
	for v.Bit(k) == 0 {
		k++
	}
	return k
}

// BrokenKey is one factored modulus.
type BrokenKey struct {
	// Index is the modulus position in the input slice.
	Index int
	// N is the modulus and P, Q its recovered factors, P <= Q.
	N, P, Q *big.Int
	// D is the recovered private exponent, nil unless P and Q are two
	// distinct primes (so nil for a composite factor and for n = p²)
	// and the exponent is invertible.
	D *big.Int
	// FoundWith is the index of the other modulus in the revealing pair.
	FoundWith int
}

// PlantedPair records the ground truth of one generated weak pair.
type PlantedPair struct {
	// I, J are the corpus indices sharing the prime P, I < J.
	I, J int
	P    *big.Int
}

// GenerateWeakCorpus synthesizes count RSA moduli of the given bit size
// with weakPairs planted pairs sharing a prime, deterministically from
// seed. It returns the moduli and the ground truth.
func GenerateWeakCorpus(count, bits, weakPairs int, seed int64) ([]*big.Int, []PlantedPair, error) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: bits, WeakPairs: weakPairs, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	moduli := make([]*big.Int, count)
	for i, k := range c.Keys {
		moduli[i] = k.N.ToBig()
	}
	planted := make([]PlantedPair, len(c.Planted))
	for i, pp := range c.Planted {
		planted[i] = PlantedPair{I: pp.I, J: pp.J, P: pp.P}
	}
	return moduli, planted, nil
}

// WriteCorpus serializes moduli to w in the line-oriented hex corpus
// format (one modulus per line, '#' comments), the interchange format of
// the cmd/keygen and cmd/rsafactor tools.
func WriteCorpus(w io.Writer, moduli []*big.Int, comment string) error {
	ms := make([]*mpnat.Nat, len(moduli))
	for i, m := range moduli {
		if m == nil || m.Sign() <= 0 {
			return fmt.Errorf("bulkgcd: modulus %d is not positive", i)
		}
		ms[i] = mpnat.FromBig(m)
	}
	return corpus.Write(w, ms, comment)
}

// ReadCorpus parses a corpus written by WriteCorpus (or assembled by hand
// from collected public keys).
func ReadCorpus(r io.Reader) ([]*big.Int, error) {
	ms, err := corpus.Read(r)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(ms))
	for i, m := range ms {
		out[i] = m.ToBig()
	}
	return out, nil
}

// ConstantTimeGCD returns gcd(x, y) computed with a fully oblivious
// (input-independent address trace, branchless) binary GCD: the memory
// and control behaviour depend only on the operands' bit capacity, never
// on their values. It always performs exactly 2*ceil(s/32)*32 iterations
// over fixed-width operands, so it is substantially slower than GCD
// (see EXPERIMENTS.md, "Obliviousness tax") - use it when the operands
// are secrets, not for bulk scanning of public moduli.
//
// Signs are ignored; even inputs are reduced as in GCD.
func ConstantTimeGCD(x, y *big.Int) *big.Int {
	ax := new(big.Int).Abs(x)
	ay := new(big.Int).Abs(y)
	switch {
	case ax.Sign() == 0:
		return ay
	case ay.Sign() == 0:
		return ax
	}
	// Note: the two's-power reduction leaks the trailing-zero counts; the
	// oblivious guarantee covers the odd-part computation, which is where
	// the Euclidean structure (and the secret-dependent trajectory of a
	// conventional GCD) lives.
	tzx := trailingZeros(ax)
	tzy := trailingZeros(ay)
	k := tzx
	if tzy < k {
		k = tzy
	}
	ax.Rsh(ax, uint(tzx))
	ay.Rsh(ay, uint(tzy))
	bits := ax.BitLen()
	if yb := ay.BitLen(); yb > bits {
		bits = yb
	}
	g, _ := gcd.NewScratch(bits).ComputeOblivious(mpnat.FromBig(ax), mpnat.FromBig(ay), gcd.Options{})
	out := g.ToBig()
	out.Lsh(out, uint(k))
	return out
}
