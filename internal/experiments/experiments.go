// Package experiments implements the reproduction harness: one entry point
// per table and figure of the paper's evaluation, shared by the command
// line tools (cmd/gcdbench, cmd/ummsim) and the root benchmark suite.
//
// Every experiment is deterministic given its seed, and returns both the
// raw data (for tests to assert the paper's qualitative shape) and a
// rendered table in the paper's layout.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/gpusim"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/tabfmt"
	"bulkgcd/internal/umm"
)

// DefaultSizes are the paper's four modulus sizes.
var DefaultSizes = []int{512, 1024, 2048, 4096}

// pairSource deterministically generates operand pairs of a given size.
// It uses pseudo-moduli (random odd values of the OpenSSL shape): for
// iteration-count and timing statistics they are indistinguishable from
// true semiprimes, and they keep the 4096-bit sweeps tractable (see
// DESIGN.md, substitutions).
func pairSource(size, pairs int, seed int64) ([]*mpnat.Nat, []*mpnat.Nat, error) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 2 * pairs, Bits: size, Seed: seed, Pseudo: true,
	})
	if err != nil {
		return nil, nil, err
	}
	ms := c.Moduli()
	return ms[:pairs], ms[pairs:], nil
}

// ---------------------------------------------------------------------------
// Table IV: mean iteration counts.

// TableIVConfig parameterizes the iteration-count experiment.
type TableIVConfig struct {
	// Sizes are modulus bit sizes (default DefaultSizes).
	Sizes []int
	// Pairs is the number of random pairs per size (the paper uses 10000).
	Pairs int
	// Seed drives the deterministic corpus.
	Seed int64
	// Algorithms defaults to all five.
	Algorithms []gcd.Algorithm
	// Metrics, when set, additionally receives every observation through
	// the live gcd_<alg>_* instruments (all sizes and terminate modes
	// aggregated), so a -status server can watch the sweep run. The
	// per-cell table means always come from private registry shards.
	Metrics *obs.Registry
}

// TableIVResult carries the measured means.
type TableIVResult struct {
	Cfg TableIVConfig
	// Mean[alg][size][early] with early index 0 = non-terminate, 1 = early.
	Mean map[gcd.Algorithm]map[int][2]float64
	// DiffEB[size][early] is mean((E) iterations - (B) iterations).
	DiffEB map[int][2]float64
}

// RunTableIV measures the mean number of do-while iterations of each
// algorithm, in non-terminate and early-terminate mode, reproducing
// Table IV.
func RunTableIV(cfg TableIVConfig) (*TableIVResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultSizes
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 100
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = gcd.Algorithms
	}
	res := &TableIVResult{
		Cfg:    cfg,
		Mean:   map[gcd.Algorithm]map[int][2]float64{},
		DiffEB: map[int][2]float64{},
	}
	for _, alg := range cfg.Algorithms {
		res.Mean[alg] = map[int][2]float64{}
	}
	live := map[gcd.Algorithm]*gcd.Metrics{}
	for _, alg := range cfg.Algorithms {
		live[alg] = gcd.NewMetrics(cfg.Metrics, alg)
	}
	for _, size := range cfg.Sizes {
		xs, ys, err := pairSource(size, cfg.Pairs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		scratch := gcd.NewScratch(size)
		// One registry shard per terminate mode: the shared gcd_<alg>_*
		// histograms replace bespoke per-algorithm accumulators, and the
		// table means are read back from their snapshots.
		var shards [2]*obs.Registry
		var cell [2]map[gcd.Algorithm]*gcd.Metrics
		for mode := 0; mode < 2; mode++ {
			shards[mode] = obs.NewRegistry()
			cell[mode] = map[gcd.Algorithm]*gcd.Metrics{}
			for _, alg := range cfg.Algorithms {
				cell[mode][alg] = gcd.NewMetrics(shards[mode], alg)
			}
		}
		for i := 0; i < cfg.Pairs; i++ {
			for _, alg := range cfg.Algorithms {
				for mode := 0; mode < 2; mode++ {
					opt := gcd.Options{}
					if mode == 1 {
						opt.EarlyBits = size / 2
					}
					_, st := scratch.Compute(alg, xs[i], ys[i], opt)
					cell[mode][alg].Observe(&st)
					live[alg].Observe(&st)
				}
			}
		}
		var mean [2]map[gcd.Algorithm]float64
		for mode := 0; mode < 2; mode++ {
			snap := shards[mode].Snapshot()
			mean[mode] = map[gcd.Algorithm]float64{}
			for _, alg := range cfg.Algorithms {
				mean[mode][alg] = snap.Histograms[gcd.IterationsMetric(alg)].Mean()
			}
		}
		for _, alg := range cfg.Algorithms {
			res.Mean[alg][size] = [2]float64{mean[0][alg], mean[1][alg]}
		}
		// The mean of the per-pair (E)-(B) differences is the difference
		// of the two means, so the row falls straight out of the
		// histograms. Algorithms absent from the run contribute 0.
		res.DiffEB[size] = [2]float64{
			mean[0][gcd.Approximate] - mean[0][gcd.Fast],
			mean[1][gcd.Approximate] - mean[1][gcd.Fast],
		}
	}
	return res, nil
}

// Table renders the result in the paper's Table IV layout.
func (r *TableIVResult) Table() *tabfmt.Table {
	header := []string{"algorithm"}
	for _, s := range r.Cfg.Sizes {
		header = append(header, fmt.Sprintf("NT %d", s))
	}
	for _, s := range r.Cfg.Sizes {
		header = append(header, fmt.Sprintf("ET %d", s))
	}
	t := tabfmt.NewTable(header...)
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("(%s) %s", alg.Letter(), alg)}
		for mode := 0; mode < 2; mode++ {
			for _, s := range r.Cfg.Sizes {
				row = append(row, fmt.Sprintf("%.1f", r.Mean[alg][s][mode]))
			}
		}
		t.AddRowF(row...)
	}
	row := []string{"(E)-(B)"}
	for mode := 0; mode < 2; mode++ {
		for _, s := range r.Cfg.Sizes {
			row = append(row, fmt.Sprintf("%.4f", r.DiffEB[s][mode]))
		}
	}
	t.AddRowF(row...)
	return t
}

// ---------------------------------------------------------------------------
// Table V: per-GCD time, CPU vs (simulated) GPU.

// TableVConfig parameterizes the timing experiment.
type TableVConfig struct {
	// Sizes are modulus bit sizes (default DefaultSizes).
	Sizes []int
	// CPUPairs is the number of pairs timed sequentially per cell.
	CPUPairs int
	// BulkModuli is the corpus size for the host-parallel all-pairs run
	// (the paper uses 16K; the default 192 gives 18336 pairs).
	BulkModuli int
	// SimThreads is the bulk width for the UMM simulation.
	SimThreads int
	// UMMWidth and UMMLatency configure the simulated machine
	// (default 32 and 200, a GPU-like warp width and DRAM latency).
	UMMWidth, UMMLatency int
	// ClockGHz converts UMM time units to wall time for the table
	// (default 1.0: one time unit = 1 ns).
	ClockGHz float64
	// SMs is the number of independent UMM units the simulated GPU runs in
	// parallel, mirroring the streaming multiprocessors of a real device
	// (the paper's GTX 780 Ti has 15 SMX). Disjoint thread blocks execute
	// on separate SMs, so simulated per-GCD time divides by SMs.
	// Default 15.
	SMs int
	// Device is the integrated GPU model (UMM memory + SIMT compute +
	// roofline occupancy) used for the GPU-dev rows; nil selects the
	// GTX 780 Ti-inspired default.
	Device *gpusim.Device
	// Early selects the terminate mode.
	Early bool
	// Seed drives the deterministic corpora.
	Seed int64
	// Algorithms defaults to (C), (D), (E) as in Table V.
	Algorithms []gcd.Algorithm
	// CheckpointDir, when set, journals each cell's bulk all-pairs run to
	// tablev-<letter>-<size>.jsonl under this directory; an interrupted
	// table rerun with the same directory resumes the partial cell and
	// skips its completed blocks.
	CheckpointDir string
	// Metrics, when set, receives the bulk engine's live instruments
	// across all cells, so a -status server can watch the sweep run.
	Metrics *obs.Registry
}

// TableVCell is one (algorithm, size) measurement.
type TableVCell struct {
	Alg  gcd.Algorithm
	Size int

	// CPUPerGCD is the sequential single-worker time per GCD.
	CPUPerGCD time.Duration
	// MemOpsPerGCD is the sequential path's word memory operations per
	// GCD (gcd.Stats.MemOps, Section IV's accounting): the work behind
	// CPUPerGCD, independent of the host's load.
	MemOpsPerGCD float64
	// ParallelPerGCD is the host-parallel bulk time per GCD.
	ParallelPerGCD time.Duration
	// SimUnitsPerGCD is the UMM-simulated time units per GCD.
	SimUnitsPerGCD float64
	// SimPerGCD is SimUnitsPerGCD converted at ClockGHz.
	SimPerGCD time.Duration
	// CoalescedFrac is the UMM coalesced-round fraction.
	CoalescedFrac float64

	// DevPerGCD is the integrated device model's per-GCD time and
	// DevBound the resource that limited it.
	DevPerGCD time.Duration
	DevBound  gpusim.Bound
	// DevDivergence is the SIMT divergence penalty on the device.
	DevDivergence float64

	// SpeedupParallel = CPUPerGCD / ParallelPerGCD.
	SpeedupParallel float64
	// SpeedupSim = CPUPerGCD / SimPerGCD.
	SpeedupSim float64
}

// TableVResult carries all cells.
type TableVResult struct {
	Cfg   TableVConfig
	Cells map[gcd.Algorithm]map[int]*TableVCell
}

// RunTableV measures per-GCD time on the sequential CPU path and on the
// two GPU substitutes (host-parallel bulk executor; UMM simulation),
// reproducing the structure of Table V.
func RunTableV(cfg TableVConfig) (*TableVResult, error) {
	return RunTableVContext(context.Background(), cfg)
}

// RunTableVContext is RunTableV with cooperative cancellation: an
// interrupted run returns an error naming the cell it stopped in, and
// with CheckpointDir set a rerun resumes that cell's bulk computation.
func RunTableVContext(ctx context.Context, cfg TableVConfig) (*TableVResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultSizes
	}
	if cfg.CPUPairs <= 0 {
		cfg.CPUPairs = 50
	}
	if cfg.BulkModuli <= 0 {
		cfg.BulkModuli = 192
	}
	if cfg.SimThreads <= 0 {
		cfg.SimThreads = 128
	}
	if cfg.UMMWidth <= 0 {
		cfg.UMMWidth = 32
	}
	if cfg.UMMLatency <= 0 {
		cfg.UMMLatency = 200
	}
	if cfg.ClockGHz <= 0 {
		cfg.ClockGHz = 1.0
	}
	if cfg.SMs <= 0 {
		cfg.SMs = 15
	}
	if cfg.Device == nil {
		cfg.Device = gpusim.GTX780Ti()
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = []gcd.Algorithm{gcd.Binary, gcd.FastBinary, gcd.Approximate}
	}
	machine, err := umm.New(cfg.UMMWidth, cfg.UMMLatency)
	if err != nil {
		return nil, err
	}
	res := &TableVResult{Cfg: cfg, Cells: map[gcd.Algorithm]map[int]*TableVCell{}}
	for _, alg := range cfg.Algorithms {
		res.Cells[alg] = map[int]*TableVCell{}
	}
	for _, size := range cfg.Sizes {
		// One corpus per size, shared by all measurements.
		c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
			Count: cfg.BulkModuli, Bits: size, Seed: cfg.Seed, Pseudo: true,
		})
		if err != nil {
			return nil, err
		}
		moduli := c.Moduli()
		xs, ys, err := pairSource(size, cfg.SimThreads, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		for _, alg := range cfg.Algorithms {
			cell := &TableVCell{Alg: alg, Size: size}

			// Sequential CPU timing over CPUPairs pairs drawn from the
			// corpus. Collect first so garbage from the previous cell's
			// simulation (its address streams are large) cannot bleed
			// into this cell's timing.
			runtime.GC()
			scratch := gcd.NewScratch(size)
			opt := gcd.Options{}
			if cfg.Early {
				opt.EarlyBits = size / 2
			}
			start := time.Now()
			pairs := 0
			var memOps int64
			for i := 0; pairs < cfg.CPUPairs; i++ {
				a := moduli[i%len(moduli)]
				b := moduli[(i*7+1)%len(moduli)]
				if a.Cmp(b) == 0 {
					continue
				}
				_, st := scratch.Compute(alg, a, b, opt)
				memOps += st.MemOps
				pairs++
			}
			cell.CPUPerGCD = time.Since(start) / time.Duration(pairs)
			cell.MemOpsPerGCD = float64(memOps) / float64(pairs)

			// Host-parallel bulk all-pairs, optionally journaled per cell.
			bres, err := runTableVBulk(ctx, cfg, alg, size, moduli)
			if err != nil {
				return nil, err
			}
			if bres.Canceled {
				return nil, fmt.Errorf("experiments: table V interrupted in cell (%s, %d bits) after %d/%d pairs; rerun with the same checkpoint dir to resume",
					alg.Letter(), size, bres.Pairs, bres.Total)
			}
			// Per-GCD time uses only the freshly computed pairs: blocks
			// replayed from a resume journal took no wall time in this run.
			if fresh := bres.Pairs - bres.ResumedPairs; fresh > 0 {
				cell.ParallelPerGCD = time.Duration(int64(bres.Elapsed) / fresh)
			}

			// UMM simulation.
			sres, err := bulk.Simulate(machine, alg, xs, ys, cfg.Early)
			if err != nil {
				return nil, err
			}
			cell.SimUnitsPerGCD = sres.TimePerGCD
			cell.SimPerGCD = time.Duration(sres.TimePerGCD / cfg.ClockGHz / float64(cfg.SMs))
			cell.CoalescedFrac = sres.UMM.CoalescedFraction()

			// Integrated device model.
			dres, err := cfg.Device.SimulateBulkGCD(alg, xs, ys, cfg.Early, 64)
			if err != nil {
				return nil, err
			}
			cell.DevPerGCD = time.Duration(dres.PerGCDMicros * 1e3)
			cell.DevBound = dres.BoundedBy
			cell.DevDivergence = dres.DivergencePenalty

			if cell.ParallelPerGCD > 0 {
				cell.SpeedupParallel = float64(cell.CPUPerGCD) / float64(cell.ParallelPerGCD)
			}
			if cell.SimPerGCD > 0 {
				cell.SpeedupSim = float64(cell.CPUPerGCD) / float64(cell.SimPerGCD)
			}
			res.Cells[alg][size] = cell
		}
	}
	return res, nil
}

// runTableVBulk runs one cell's bulk all-pairs computation, journaled to
// CheckpointDir when configured. A journal that verifies against this
// cell's corpus fingerprint is resumed; a stale or foreign one is
// truncated and the cell starts over. Every algorithm runs on the scalar
// kernel, so the five rows stay comparable (Approximate would otherwise
// run on the lane kernel).
func runTableVBulk(ctx context.Context, cfg TableVConfig, alg gcd.Algorithm, size int, moduli []*mpnat.Nat) (*bulk.Result, error) {
	bcfg := bulk.Config{
		Config: engine.Config{Metrics: cfg.Metrics}, Algorithm: alg, Early: cfg.Early,
		Kernel: engine.KernelScalar,
	}
	if cfg.CheckpointDir == "" {
		return bulk.AllPairsContext(ctx, moduli, bcfg)
	}
	hdr, err := bulk.JournalHeader(moduli, bcfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.CheckpointDir, fmt.Sprintf("tablev-%s-%d.jsonl", alg.Letter(), size))
	if st, err := checkpoint.Load(path); err == nil && st.Verify(hdr) == nil {
		w, err := checkpoint.OpenAppend(path)
		if err != nil {
			return nil, err
		}
		bcfg.Resume = st
		bcfg.Checkpoint = w
	} else {
		w, err := checkpoint.Create(path)
		if err != nil {
			return nil, err
		}
		bcfg.Checkpoint = w
	}
	defer bcfg.Checkpoint.Close()
	return bulk.AllPairsContext(ctx, moduli, bcfg)
}

// Table renders the cells in the paper's Table V layout (microseconds per
// GCD, plus the CPU/GPU ratios).
func (r *TableVResult) Table() *tabfmt.Table {
	header := []string{"row"}
	for _, s := range r.Cfg.Sizes {
		header = append(header, fmt.Sprintf("%d", s))
	}
	t := tabfmt.NewTable(header...)
	us := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e3) }
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("CPU (%s) %s us", alg.Letter(), alg)}
		for _, s := range r.Cfg.Sizes {
			row = append(row, us(r.Cells[alg][s].CPUPerGCD))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("GPU-par (%s) us", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, us(r.Cells[alg][s].ParallelPerGCD))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("GPU-sim (%s) us", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, us(r.Cells[alg][s].SimPerGCD))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("GPU-dev (%s) us", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, us(r.Cells[alg][s].DevPerGCD))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("CPU/GPU-dev (%s)", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			cell := r.Cells[alg][s]
			ratio := 0.0
			if cell.DevPerGCD > 0 {
				ratio = float64(cell.CPUPerGCD) / float64(cell.DevPerGCD)
			}
			row = append(row, fmt.Sprintf("%.1f", ratio))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("dev bound (%s)", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, string(r.Cells[alg][s].DevBound))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("CPU/GPU-par (%s)", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, fmt.Sprintf("%.1f", r.Cells[alg][s].SpeedupParallel))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("CPU/GPU-sim (%s)", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, fmt.Sprintf("%.1f", r.Cells[alg][s].SpeedupSim))
		}
		t.AddRowF(row...)
	}
	for _, alg := range r.Cfg.Algorithms {
		row := []string{fmt.Sprintf("coalesced (%s)", alg.Letter())}
		for _, s := range r.Cfg.Sizes {
			row = append(row, fmt.Sprintf("%.3f", r.Cells[alg][s].CoalescedFrac))
		}
		t.AddRowF(row...)
	}
	return t
}
