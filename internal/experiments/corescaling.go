package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/tabfmt"
)

// ---------------------------------------------------------------------------
// Multicore scaling: wall-clock of one bulk engine as the pool widens.

// CoreScalingConfig shapes a speedup-vs-cores sweep over the all-pairs
// engine (the paper's workload, and the one whose pairs are heavy
// enough to expose scheduling overhead at small corpora).
type CoreScalingConfig struct {
	// Cores lists the pool widths to sweep, ascending (default 1,2,4,8).
	// Each run also pins GOMAXPROCS to the width so a point measures
	// "this many cores", not "this many goroutines on all cores".
	Cores []int
	// Moduli and Bits shape the corpus (defaults 96 and 512).
	Moduli int
	Bits   int
	Seed   int64
	// Kernel selects the per-pair GCD kernel (scalar or lanes).
	Kernel engine.KernelKind
}

// CoreScalingPoint is one pool width in the sweep.
type CoreScalingPoint struct {
	Cores      int
	Elapsed    time.Duration
	NsPerPair  float64
	Speedup    float64 // vs the first (narrowest) point
	Efficiency float64 // Speedup / Cores
	Findings   int     // factor count; identical at every width by contract
}

// RunCoreScalingContext sweeps the all-pairs engine over cfg.Cores,
// verifying along the way that every width reports byte-identical
// findings (the pool reorders execution, never results).
// Widths beyond runtime.NumCPU() still run — oversubscribed — so the
// sweep stays total on small machines; their efficiency column simply
// documents that extra workers beyond the physical cores buy nothing.
func RunCoreScalingContext(ctx context.Context, cfg CoreScalingConfig) ([]CoreScalingPoint, error) {
	cores := cfg.Cores
	if len(cores) == 0 {
		cores = []int{1, 2, 4, 8}
	}
	m := cfg.Moduli
	if m <= 0 {
		m = 96
	}
	bits := cfg.Bits
	if bits <= 0 {
		bits = 512
	}
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: m, Bits: bits, Seed: cfg.Seed, Pseudo: true})
	if err != nil {
		return nil, err
	}
	moduli := c.Moduli()
	pairs := float64(m) * float64(m-1) / 2

	var out []CoreScalingPoint
	var baseline *bulk.Result
	for _, w := range cores {
		if w < 1 {
			return nil, fmt.Errorf("experiments: core count %d", w)
		}
		prev := runtime.GOMAXPROCS(w)
		start := time.Now()
		res, err := bulk.AllPairsContext(ctx, moduli, bulk.Config{
			Config:    engine.Config{Workers: w},
			Algorithm: gcd.Approximate, Early: true, Kernel: cfg.Kernel,
		})
		elapsed := time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		if res.Canceled {
			return nil, fmt.Errorf("experiments: core sweep interrupted at %d cores", w)
		}
		if baseline == nil {
			baseline = res
		} else if err := sameFindings(baseline, res); err != nil {
			return nil, fmt.Errorf("experiments: findings differ at %d cores: %w", w, err)
		}
		p := CoreScalingPoint{
			Cores:     w,
			Elapsed:   elapsed,
			NsPerPair: float64(elapsed.Nanoseconds()) / pairs,
			Findings:  len(res.Factors),
		}
		p.Speedup = float64(out0Elapsed(out, elapsed)) / float64(elapsed)
		p.Efficiency = p.Speedup / float64(w)
		out = append(out, p)
	}
	return out, nil
}

// out0Elapsed returns the baseline elapsed time: the first point's, or
// elapsed itself when this is the first point (speedup 1.0).
func out0Elapsed(out []CoreScalingPoint, elapsed time.Duration) time.Duration {
	if len(out) == 0 {
		return elapsed
	}
	return out[0].Elapsed
}

// sameFindings diffs two results' factor lists; both are sorted by the
// engines, so inequality anywhere is a determinism violation.
func sameFindings(a, b *bulk.Result) error {
	if len(a.Factors) != len(b.Factors) {
		return fmt.Errorf("%d factors vs %d", len(a.Factors), len(b.Factors))
	}
	for i := range a.Factors {
		fa, fb := a.Factors[i], b.Factors[i]
		if fa.I != fb.I || fa.J != fb.J || fa.P.Cmp(fb.P) != 0 {
			return fmt.Errorf("factor %d: (%d,%d,%v) vs (%d,%d,%v)", i, fa.I, fa.J, fa.P, fb.I, fb.J, fb.P)
		}
	}
	return nil
}

// CoreScalingJSON renders the sweep for the report artifact.
func CoreScalingJSON(ps []CoreScalingPoint) []map[string]any {
	out := make([]map[string]any, 0, len(ps))
	for _, p := range ps {
		out = append(out, map[string]any{
			"cores":      p.Cores,
			"ms":         float64(p.Elapsed.Nanoseconds()) / 1e6,
			"ns_pair":    p.NsPerPair,
			"speedup":    p.Speedup,
			"efficiency": p.Efficiency,
			"findings":   p.Findings,
		})
	}
	return out
}

// CoreScalingTable renders the sweep.
func CoreScalingTable(ps []CoreScalingPoint) *tabfmt.Table {
	t := tabfmt.NewTable("cores", "elapsed", "ns/pair", "speedup", "efficiency")
	for _, p := range ps {
		t.AddRowF(
			fmt.Sprintf("%d", p.Cores),
			p.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", p.NsPerPair),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.0f%%", 100*p.Efficiency),
		)
	}
	return t
}
