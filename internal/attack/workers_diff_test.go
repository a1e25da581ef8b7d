package attack

import (
	"fmt"
	"testing"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/rsakey"
)

// TestDifferentialWorkerCounts pins the scheduler's core contract:
// findings are byte-identical at every pool width. The widths
// deliberately include 1 (the inline no-pool path), 2, 7 (odd, so units
// do not divide evenly among workers) and 16 (far more workers than
// this machine has cores, so units finish in arbitrary interleavings).
// Each width runs the three engines the scheduler drives — all-pairs,
// hybrid cells, batch GCD — and every report must match the brute-force
// math/big oracle and the width-1 report exactly.
func TestDifferentialWorkerCounts(t *testing.T) {
	moduli := differentialCorpus(t, 77, 128)
	wantBroken, wantDups := naiveReference(moduli)

	engines := []struct {
		name string
		opt  Options
		bulk func(*bulk.Config)
	}{
		{"pairs", Options{
			Algorithm: gcd.Approximate, Early: true,
			Kernel:   engine.KernelScalar,
			Exponent: rsakey.DefaultExponent,
		}, nil},
		{"pairs-lanes", Options{
			Algorithm: gcd.Approximate, Early: true,
			Exponent: rsakey.DefaultExponent,
		}, func(c *bulk.Config) { c.LaneWidth = 4 }},
		{"hybrid", Options{
			Engine:    engine.Hybrid,
			Algorithm: gcd.Approximate, Early: true, TileSize: 4,
			Exponent: rsakey.DefaultExponent,
		}, nil},
		{"batch", Options{
			Engine:   engine.Batch,
			Exponent: rsakey.DefaultExponent,
		}, nil},
	}

	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			var base *Report
			for _, w := range []int{1, 2, 7, 16} {
				opt := eng.opt
				opt.Config.Workers = w
				rep, err := runBulk(moduli, opt, eng.bulk)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				checkAgainstNaive(t, moduli, rep, wantBroken, wantDups)
				if base == nil {
					base = rep
					continue
				}
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					checkReportsIdentical(t, base, rep)
				})
			}
		})
	}
}
