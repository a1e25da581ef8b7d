package experiments

import (
	"fmt"
	"math/big"
	"math/rand"

	"bulkgcd/internal/gcd"
	"bulkgcd/internal/refgcd"
	"bulkgcd/internal/tabfmt"
)

// Ablations for the two design choices Section III and V leave implicit:
// how good the alpha*D^beta approximation needs to be (equivalently, how
// large the word size d must be before Approximate matches the exact-
// quotient Fast Euclid), and how the early-terminate threshold trades
// iterations against safety margin.

// WordSizeAblation measures Approximate's iteration count relative to
// Fast Euclid (exact quotient) as the word size d grows. The quotient
// approximation is computed from 2d-bit prefixes, so small d means coarse
// quotients and extra iterations; the paper's d = 32 makes the difference
// ~1e-5.
type WordSizeAblation struct {
	Bits  int
	Pairs int
	// Overhead[d] = mean(iterations(E, d)) / mean(iterations(B)) - 1:
	// the fractional iteration overhead of approximating at word size d.
	Overhead map[int]float64
	// MeanE[d] is the raw mean iteration count of (E) at word size d.
	MeanE map[int]float64
	// MeanB is the exact-quotient baseline.
	MeanB float64
	Ds    []int
}

// RunWordSizeAblation sweeps d over the reference implementation
// (production code is fixed at d = 32; the reference is bit-identical at
// equal d, as the cross-validation tests prove).
func RunWordSizeAblation(bits, pairs int, ds []int, seed int64) (*WordSizeAblation, error) {
	if len(ds) == 0 {
		ds = []int{4, 8, 16, 32}
	}
	if pairs <= 0 {
		pairs = 50
	}
	r := rand.New(rand.NewSource(seed))
	res := &WordSizeAblation{
		Bits: bits, Pairs: pairs, Ds: ds,
		Overhead: map[int]float64{}, MeanE: map[int]float64{},
	}
	xs := make([]*big.Int, pairs)
	ys := make([]*big.Int, pairs)
	for i := range xs {
		xs[i] = randOddBig(r, bits)
		ys[i] = randOddBig(r, bits)
	}
	var sumB float64
	for i := range xs {
		rb, err := refgcd.Run(refgcd.Fast, xs[i], ys[i], refgcd.Options{WordBits: 32})
		if err != nil {
			return nil, err
		}
		sumB += float64(rb.Iterations)
	}
	res.MeanB = sumB / float64(len(xs))
	for _, d := range ds {
		var sum float64
		for i := range xs {
			re, err := refgcd.Run(refgcd.Approximate, xs[i], ys[i], refgcd.Options{WordBits: d})
			if err != nil {
				return nil, err
			}
			sum += float64(re.Iterations)
		}
		res.MeanE[d] = sum / float64(len(xs))
		res.Overhead[d] = res.MeanE[d]/res.MeanB - 1
	}
	return res, nil
}

// Table renders the word-size ablation.
func (r *WordSizeAblation) Table() *tabfmt.Table {
	t := tabfmt.NewTable("word size d", "mean iters (E)", "vs exact quotient (B)")
	t.AddRowF("exact (B)", fmt.Sprintf("%.1f", r.MeanB), "1.0000x")
	for _, d := range r.Ds {
		t.AddRowF(
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%.1f", r.MeanE[d]),
			fmt.Sprintf("%.4fx", 1+r.Overhead[d]),
		)
	}
	return t
}

func randOddBig(r *rand.Rand, bits int) *big.Int {
	v := new(big.Int)
	for v.BitLen() < bits {
		v.Lsh(v, 32)
		v.Or(v, new(big.Int).SetUint64(uint64(r.Uint32())))
	}
	v.Rsh(v, uint(v.BitLen()-bits))
	v.SetBit(v, bits-1, 1)
	v.SetBit(v, 0, 1)
	return v
}

// ThresholdAblation measures the early-terminate threshold trade-off:
// iterations saved vs the safety margin to the s/2-bit shared prime.
type ThresholdAblation struct {
	Bits  int
	Pairs int
	// Fractions are the thresholds as fractions of s (e.g. 0.25, 0.5).
	Fractions []float64
	// MeanIters[i] is the mean iteration count at Fractions[i]; index
	// len(Fractions) holds the non-terminate baseline.
	MeanIters []float64
	// SharedPrimeSafe[i] reports whether the threshold can never miss an
	// s/2-bit shared prime (threshold <= s/2).
	SharedPrimeSafe []bool
}

// RunThresholdAblation sweeps the early-termination threshold on the
// production engine. Thresholds above s/2 are unsafe (they can abandon a
// pair before the shared prime surfaces); the sweep quantifies what the
// safe s/2 choice costs relative to more aggressive cuts.
func RunThresholdAblation(bits, pairs int, fractions []float64, seed int64) (*ThresholdAblation, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.25, 0.5, 0.75}
	}
	if pairs <= 0 {
		pairs = 50
	}
	xs, ys, err := pairSource(bits, pairs, seed)
	if err != nil {
		return nil, err
	}
	scratch := gcd.NewScratch(bits)
	res := &ThresholdAblation{Bits: bits, Pairs: pairs, Fractions: fractions}
	for _, f := range fractions {
		threshold := int(f * float64(bits))
		var sum float64
		for i := range xs {
			_, st := scratch.Compute(gcd.Approximate, xs[i], ys[i], gcd.Options{EarlyBits: threshold})
			sum += float64(st.Iterations)
		}
		res.MeanIters = append(res.MeanIters, sum/float64(len(xs)))
		res.SharedPrimeSafe = append(res.SharedPrimeSafe, threshold <= bits/2)
	}
	var sum float64
	for i := range xs {
		_, st := scratch.Compute(gcd.Approximate, xs[i], ys[i], gcd.Options{})
		sum += float64(st.Iterations)
	}
	res.MeanIters = append(res.MeanIters, sum/float64(len(xs)))
	return res, nil
}

// Table renders the threshold ablation.
func (r *ThresholdAblation) Table() *tabfmt.Table {
	t := tabfmt.NewTable("threshold", "mean iters", "vs non-terminate", "safe for s/2-bit primes")
	base := r.MeanIters[len(r.MeanIters)-1]
	for i, f := range r.Fractions {
		t.AddRowF(
			fmt.Sprintf("%.2f*s", f),
			fmt.Sprintf("%.1f", r.MeanIters[i]),
			fmt.Sprintf("%.2fx", r.MeanIters[i]/base),
			fmt.Sprintf("%v", r.SharedPrimeSafe[i]),
		)
	}
	t.AddRowF("none", fmt.Sprintf("%.1f", base), "1.00x", "true")
	return t
}
