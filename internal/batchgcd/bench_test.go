package batchgcd

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// BenchmarkBatchGCD measures the complete batch attack (product tree,
// prefix descent, candidate and suffix passes, leaf GCDs, resolution)
// on a 4096-moduli 512-bit corpus across pool sizes. Workers=1 is the serial baseline the
// parallel engine must beat; the Finding lists are identical by
// construction (see TestRunConfigWorkersIdentical).
func BenchmarkBatchGCD(b *testing.B) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 4096, Bits: 512, WeakPairs: 8, Seed: 11, Pseudo: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]*big.Int, len(c.Keys))
	for i, k := range c.Keys {
		ms[i] = k.N.ToBig()
	}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: w}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Same attack with a live registry attached: the delta against the
	// metrics=nil runs above is the instrumentation overhead (budget 2%).
	b.Run("workers=8/metrics", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			if _, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: 8, Metrics: reg}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// densities are the shares of keys that share a prime in the density
// test and benchmark. They fall on both sides of the dense guard
// (4|S| > m): every sharing pair is one prefix hit.
var densities = []float64{0, 0.02, 0.25, 0.5, 1}

// randomPrimes returns count random primes of bits bits.
func randomPrimes(r *rand.Rand, count, bits int) []*big.Int {
	ps := make([]*big.Int, count)
	for i := range ps {
		ps[i] = rsakey.GeneratePrime(r, bits)
	}
	return ps
}

// densityCorpus returns len(ps)/2 moduli, n_i = ps[2i]·ps[2i+1], in
// which a share frac of the keys after the first eight share a prime in
// pairs (or one triple, when their count is odd). The first eight hold
// a duplicate pair, a modulus that divides the product of two others,
// n = 1, and p² beside p·q. The keys are then shuffled into random tree
// positions. ps must hold at least 16 distinct primes.
func densityCorpus(r *rand.Rand, ps []*big.Int, frac float64) []*big.Int {
	m := len(ps) / 2
	ms := make([]*big.Int, m)
	for i := range ms {
		ms[i] = new(big.Int).Mul(ps[2*i], ps[2*i+1])
	}
	ms[1] = new(big.Int).Set(ms[0])          // a duplicate pair
	ms[4] = new(big.Int).Mul(ps[4], ps[6])   // divides n_2·n_3
	ms[5] = big.NewInt(1)                    // n = 1
	ms[7] = new(big.Int).Mul(ps[12], ps[12]) // p² beside n_6 = p·q
	k := int(frac*float64(m-8) + 0.5)
	for j := 0; j+1 < k; j += 2 {
		a := 8 + j
		ms[a+1] = new(big.Int).Mul(ps[2*a], ps[2*(a+1)+1])
		if j+3 == k { // an odd count: the last key joins this pair
			ms[a+2] = new(big.Int).Mul(ps[2*a], ps[2*(a+2)+1])
		}
	}
	r.Shuffle(m, func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// BenchmarkBatchGCDDensity measures SharedFactorsContext (product tree
// included) on 1024 × 1024-bit moduli, one sub-benchmark per share of
// sharing keys. Up to 25% the passes take the hit reduce and a suffix
// tree over the sharing keys; 50% and 100% pass the dense guard and run
// the suffix descent over the main tree. -short runs 256 × 512-bit
// moduli, so every push runs both paths. The pool follows GOMAXPROCS.
func BenchmarkBatchGCDDensity(b *testing.B) {
	m, bits := 1024, 1024
	if testing.Short() {
		m, bits = 256, 512
	}
	r := rand.New(rand.NewSource(27))
	ps := randomPrimes(r, 2*m, bits/2)
	for _, frac := range densities {
		ms := densityCorpus(r, ps, frac)
		b.Run(fmt.Sprintf("shared=%.0f%%", 100*frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SharedFactorsContext(context.Background(), ms, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
