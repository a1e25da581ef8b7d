package experiments

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/gpusim"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/simt"
	"bulkgcd/internal/tabfmt"
	"bulkgcd/internal/umm"
)

// ---------------------------------------------------------------------------
// Section VII: SIMT branch divergence.

// DivergenceResult reports the SIMT cost of one algorithm's bulk kernel.
type DivergenceResult struct {
	Alg gcd.Algorithm
	// Penalty is serialized cycles / ideal cycles (1.0 = no divergence).
	Penalty float64
	// Converged is the fraction of warp-rounds with a single branch body.
	Converged float64
	// CyclesPerGCD is the mean serialized SIMT cycles per GCD.
	CyclesPerGCD float64
}

// RunDivergence replays real per-thread iteration traces through the SIMT
// model, quantifying the paper's Section VII observation that Binary
// Euclidean's three-way branch serializes while Approximate's does not.
func RunDivergence(warpSize int, overhead int64, size, p int, early bool, seed int64) ([]DivergenceResult, error) {
	m, err := simt.New(warpSize, overhead)
	if err != nil {
		return nil, err
	}
	xs, ys, err := pairSource(size, p, seed)
	if err != nil {
		return nil, err
	}
	scratch := gcd.NewScratch(size)
	var out []DivergenceResult
	for _, alg := range []gcd.Algorithm{gcd.Binary, gcd.FastBinary, gcd.Approximate} {
		traces := make([][]gcd.IterShape, p)
		for j := 0; j < p; j++ {
			opt := gcd.Options{RecordShapes: true}
			if early {
				opt.EarlyBits = size / 2
			}
			_, st := scratch.Compute(alg, xs[j], ys[j], opt)
			traces[j] = st.Shapes
		}
		res := m.Run(traces)
		out = append(out, DivergenceResult{
			Alg:          alg,
			Penalty:      res.DivergencePenalty(),
			Converged:    res.ConvergedFraction(),
			CyclesPerGCD: float64(res.Cycles) / float64(p),
		})
	}
	return out, nil
}

// DivergenceTable renders the Section VII comparison.
func DivergenceTable(rs []DivergenceResult) *tabfmt.Table {
	t := tabfmt.NewTable("algorithm", "cycles/GCD", "divergence penalty", "converged rounds")
	for _, r := range rs {
		t.AddRowF(
			fmt.Sprintf("(%s) %s", r.Alg.Letter(), r.Alg),
			fmt.Sprintf("%.0f", r.CyclesPerGCD),
			fmt.Sprintf("%.2fx", r.Penalty),
			fmt.Sprintf("%.1f%%", 100*r.Converged),
		)
	}
	return t
}

// ---------------------------------------------------------------------------
// Baseline comparison: all-pairs (the paper) vs Bernstein batch GCD.

// EngineComparison is one corpus size in the engine-vs-engine timing
// sweep: wall-clock per selected engine over the same corpus, plus the
// per-pair GCD kernel the Euclidean engines ran with.
type EngineComparison struct {
	M      int
	Kernel engine.KernelKind
	Times  map[engine.Kind]time.Duration
}

// RunEngineComparisonContext times the selected attack engines over
// growing corpora of the given modulus size. All-pairs work grows as m^2
// while batch GCD grows as ~m log^2 m, so batch GCD must win for large m
// and the all-pairs approach (and the paper's GPU acceleration of it)
// at small m; the tiled product-filter hybrid sits between. Every
// engine runs on a worker pool of the same size (0 = GOMAXPROCS) so the
// comparison is pool-vs-pool.
// kernel selects the per-pair GCD kernel for the pairs and hybrid
// engines (batch GCD has no pair kernel and ignores it).
func RunEngineComparisonContext(ctx context.Context, size int, ms []int, workers int, seed int64, kinds []engine.Kind, kernel engine.KernelKind) ([]EngineComparison, error) {
	if len(ms) == 0 {
		ms = []int{32, 64, 128, 256}
	}
	if len(kinds) == 0 {
		kinds = []engine.Kind{engine.Pairs, engine.Batch, engine.Hybrid}
	}
	var out []EngineComparison
	for _, m := range ms {
		c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
			Count: m, Bits: size, Seed: seed, Pseudo: true,
		})
		if err != nil {
			return nil, err
		}
		moduli := c.Moduli()
		// The corpus-format conversion is setup, not engine work: keep it
		// out of the timed region.
		bigs := make([]*big.Int, len(moduli))
		for i, n := range moduli {
			bigs[i] = n.ToBig()
		}
		point := EngineComparison{M: m, Kernel: kernel, Times: map[engine.Kind]time.Duration{}}
		for _, kind := range kinds {
			bcfg := bulk.Config{
				Config:    engine.Config{Workers: workers},
				Algorithm: gcd.Approximate, Early: true,
				Kernel: kernel,
			}
			start := time.Now()
			switch kind {
			case engine.Pairs:
				bres, err := bulk.AllPairsContext(ctx, moduli, bcfg)
				if err != nil {
					return nil, err
				}
				if bres.Canceled {
					return nil, fmt.Errorf("experiments: comparison interrupted at m=%d", m)
				}
			case engine.Hybrid:
				bres, err := bulk.HybridContext(ctx, moduli, bcfg)
				if err != nil {
					return nil, err
				}
				if bres.Canceled {
					return nil, fmt.Errorf("experiments: comparison interrupted at m=%d", m)
				}
			case engine.Batch:
				if _, err := batchgcd.RunContext(ctx, bigs, batchgcd.Config{Config: engine.Config{Workers: workers}}); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("experiments: unknown engine %v", kind)
			}
			point.Times[kind] = time.Since(start)
		}
		out = append(out, point)
	}
	return out, nil
}

// EngineComparisonJSON renders the sweep as a JSON-able structure for
// the report artifact: per corpus size, the pair count, the GCD kernel
// the Euclidean engines ran, and one milliseconds entry per engine.
func EngineComparisonJSON(ps []EngineComparison) []map[string]any {
	out := make([]map[string]any, 0, len(ps))
	for _, p := range ps {
		ms := map[string]float64{}
		for k, d := range p.Times {
			ms[k.String()] = float64(d.Nanoseconds()) / 1e6
		}
		out = append(out, map[string]any{
			"moduli": p.M,
			"pairs":  p.M * (p.M - 1) / 2,
			"kernel": p.Kernel.String(),
			"ms":     ms,
		})
	}
	return out
}

// EngineComparisonTable renders the sweep, one column per engine in the
// order given (engines absent from a point print as "-").
func EngineComparisonTable(ps []EngineComparison, kinds []engine.Kind) *tabfmt.Table {
	header := []string{"moduli", "pairs"}
	for _, k := range kinds {
		header = append(header, "t("+k.String()+")")
	}
	t := tabfmt.NewTable(header...)
	for _, p := range ps {
		row := []string{
			fmt.Sprintf("%d", p.M),
			fmt.Sprintf("%d", p.M*(p.M-1)/2),
		}
		for _, k := range kinds {
			if d, ok := p.Times[k]; ok {
				row = append(row, d.Round(time.Microsecond).String())
			} else {
				row = append(row, "-")
			}
		}
		t.AddRowF(row...)
	}
	return t
}

// ---------------------------------------------------------------------------
// Device occupancy: latency hiding on the integrated GPU model.

// OccupancyPoint is one resident-warp setting in the sweep.
type OccupancyPoint struct {
	ResidentWarps int
	PerGCDMicros  float64
	Bound         gpusim.Bound
}

// RunOccupancySweep sweeps the number of warps an SM interleaves. With
// one resident warp every memory round pays the full latency l; with
// enough warps the latency is hidden and execution becomes memory- (or
// compute-) bound - the paper's "time for these operations [is] hidden by
// large memory access latency" made quantitative.
func RunOccupancySweep(base *gpusim.Device, alg gcd.Algorithm, size, p int, warps []int, seed int64) ([]OccupancyPoint, error) {
	if base == nil {
		base = gpusim.GTX780Ti()
	}
	if len(warps) == 0 {
		warps = []int{1, 2, 4, 8, 16, 32, 64}
	}
	xs, ys, err := pairSource(size, p, seed)
	if err != nil {
		return nil, err
	}
	var out []OccupancyPoint
	for _, w := range warps {
		d := *base
		d.ResidentWarps = w
		rep, err := d.SimulateBulkGCD(alg, xs, ys, true, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, OccupancyPoint{
			ResidentWarps: w,
			PerGCDMicros:  rep.PerGCDMicros,
			Bound:         rep.BoundedBy,
		})
	}
	return out, nil
}

// OccupancyTable renders the sweep.
func OccupancyTable(ps []OccupancyPoint) *tabfmt.Table {
	t := tabfmt.NewTable("resident warps", "us/GCD", "bounded by")
	for _, p := range ps {
		t.AddRowF(
			fmt.Sprintf("%d", p.ResidentWarps),
			fmt.Sprintf("%.3f", p.PerGCDMicros),
			string(p.Bound),
		)
	}
	return t
}

// ---------------------------------------------------------------------------
// Section I related-work comparison: published per-GCD times vs the
// device model running the corresponding implementation.

// RelatedWorkRow pairs a published result with its in-model estimate.
type RelatedWorkRow struct {
	Name        string
	Alg         gcd.Algorithm
	PublishedUs float64 // per 1024-bit GCD, from Section I
	ModelUs     float64
}

// RunRelatedWork reproduces the paper's introduction comparison: the
// prior GPU implementations all ran Binary Euclidean on their devices
// ([19] GTX 285, [20] GTX 480, [21] K20Xm), while the paper runs
// Approximate Euclidean on a GTX 780 Ti. Each row simulates the
// corresponding (device, algorithm) pair on 1024-bit moduli.
func RunRelatedWork(p int, seed int64) ([]RelatedWorkRow, error) {
	rows := []struct {
		name      string
		dev       *gpusim.Device
		alg       gcd.Algorithm
		published float64
	}{
		{"Fujimoto [19], GTX 285, Binary", gpusim.GTX285(), gcd.Binary, 10.9},
		{"Scharfglass [20], GTX 480, Binary", gpusim.GTX480(), gcd.Binary, 10.02},
		{"White [21], K20Xm, Binary", gpusim.TeslaK20Xm(), gcd.Binary, 3.15},
		{"this paper, GTX 780 Ti, Approximate", gpusim.GTX780Ti(), gcd.Approximate, 0.346},
	}
	if p <= 0 {
		p = 128
	}
	xs, ys, err := pairSource(1024, p, seed)
	if err != nil {
		return nil, err
	}
	var out []RelatedWorkRow
	for _, r := range rows {
		rep, err := r.dev.SimulateBulkGCD(r.alg, xs, ys, true, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, RelatedWorkRow{
			Name: r.name, Alg: r.alg,
			PublishedUs: r.published, ModelUs: rep.PerGCDMicros,
		})
	}
	return out, nil
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(rows []RelatedWorkRow) *tabfmt.Table {
	t := tabfmt.NewTable("implementation", "published us/GCD", "model us/GCD")
	for _, r := range rows {
		t.AddRowF(r.Name, fmt.Sprintf("%.3f", r.PublishedUs), fmt.Sprintf("%.3f", r.ModelUs))
	}
	return t
}

// ---------------------------------------------------------------------------
// Obliviousness tax: fully-oblivious GCD vs the paper's semi-oblivious
// Approximate on the UMM.

// ObliviousTaxResult compares the two bulk executions.
type ObliviousTaxResult struct {
	Size, Threads int
	// Oblivious is the constant-trajectory binary GCD; Approx the
	// paper's algorithm (non-terminate mode, like-for-like).
	ObliviousUnits, ApproxUnits         float64
	ObliviousCoalesced, ApproxCoalesced float64
}

// RunObliviousTax replays both algorithms' real traces on the UMM. The
// oblivious run must coalesce perfectly (Theorem 1 applies to it
// directly); the semi-oblivious run coalesces partially but performs far
// fewer memory operations. The paper's design bet is that the second
// effect wins - this experiment measures by how much.
func RunObliviousTax(m *umm.Machine, size, p int, seed int64) (*ObliviousTaxResult, error) {
	xs, ys, err := pairSource(size, p, seed)
	if err != nil {
		return nil, err
	}
	words := (size + 31) / 32
	scratch := gcd.NewScratch(size)
	build := func(oblivious bool) (umm.RunStats, error) {
		progs := make([]umm.Program, p)
		for j := 0; j < p; j++ {
			var st gcd.Stats
			if oblivious {
				_, st = scratch.ComputeOblivious(xs[j], ys[j], gcd.Options{RecordShapes: true})
			} else {
				_, st = scratch.Compute(gcd.Approximate, xs[j], ys[j], gcd.Options{RecordShapes: true})
			}
			progs[j] = bulk.ShapeProgram(st.Shapes, p, j, words)
		}
		return m.Run(progs), nil
	}
	obl, err := build(true)
	if err != nil {
		return nil, err
	}
	apx, err := build(false)
	if err != nil {
		return nil, err
	}
	return &ObliviousTaxResult{
		Size: size, Threads: p,
		ObliviousUnits:     float64(obl.Time) / float64(p),
		ApproxUnits:        float64(apx.Time) / float64(p),
		ObliviousCoalesced: obl.CoalescedFraction(),
		ApproxCoalesced:    apx.CoalescedFraction(),
	}, nil
}

// Table renders the comparison.
func (r *ObliviousTaxResult) Table() *tabfmt.Table {
	t := tabfmt.NewTable("algorithm", "units/GCD", "coalesced")
	t.AddRowF("oblivious binary (fixed 2s iters)",
		fmt.Sprintf("%.0f", r.ObliviousUnits), fmt.Sprintf("%.0f%%", 100*r.ObliviousCoalesced))
	t.AddRowF("semi-oblivious Approximate (E)",
		fmt.Sprintf("%.0f", r.ApproxUnits), fmt.Sprintf("%.0f%%", 100*r.ApproxCoalesced))
	t.AddRowF("tax of full obliviousness",
		fmt.Sprintf("%.2fx", r.ObliviousUnits/r.ApproxUnits), "")
	return t
}
