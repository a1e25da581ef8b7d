package batchgcd

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// BenchmarkBatchGCD measures the complete batch attack (product tree,
// cofactor descent, leaf GCDs, resolution) on a 4096-moduli 512-bit
// corpus across pool sizes. Workers=1 is the serial baseline the
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
