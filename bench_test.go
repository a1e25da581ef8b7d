package bulkgcd

// This file is the benchmark harness mandated by DESIGN.md: one bench per
// table and figure of the paper's evaluation. Each benchmark either
// measures the table's quantity directly (ns/GCD for Table V's timing
// cells) or reports it as a custom metric (iterations/GCD for Table IV,
// memory operations and coalescing for the figures), so that
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. cmd/gcdbench and cmd/ummsim print the
// same data as formatted tables.

import (
	"context"
	"math/big"
	"runtime"
	"strconv"
	"testing"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/experiments"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/refgcd"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/umm"
)

// ---------------------------------------------------------------------------
// Tables I-III: the paper's worked examples (d = 4 reference algorithms).

func benchPaperExample(b *testing.B, alg refgcd.Algorithm, wantIters int) {
	x := big.NewInt(1043915)
	y := big.NewInt(768955)
	opt := refgcd.Options{WordBits: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := refgcd.Run(alg, x, y, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations != wantIters || res.GCD.Int64() != 5 {
			b.Fatalf("%v: %d iterations (want %d), gcd %v", alg, res.Iterations, wantIters, res.GCD)
		}
	}
	b.ReportMetric(float64(wantIters), "iters/GCD")
}

func BenchmarkTableI_Binary(b *testing.B)        { benchPaperExample(b, refgcd.Binary, 24) }
func BenchmarkTableI_FastBinary(b *testing.B)    { benchPaperExample(b, refgcd.FastBinary, 16) }
func BenchmarkTableII_Original(b *testing.B)     { benchPaperExample(b, refgcd.Original, 11) }
func BenchmarkTableII_Fast(b *testing.B)         { benchPaperExample(b, refgcd.Fast, 8) }
func BenchmarkTableIII_Approximate(b *testing.B) { benchPaperExample(b, refgcd.Approximate, 9) }

// ---------------------------------------------------------------------------
// Shared pair source for the word-level benchmarks.

func benchPairs(b *testing.B, size, n int) ([]*mpnat.Nat, []*mpnat.Nat) {
	b.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 2 * n, Bits: size, Seed: int64(size), Pseudo: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ms := c.Moduli()
	return ms[:n], ms[n:]
}

// ---------------------------------------------------------------------------
// Table IV: iteration counts. ns/op is the sequential cost per GCD; the
// iters/GCD metric is the table's number.

func benchTableIV(b *testing.B, alg gcd.Algorithm, size int, early bool) {
	const pool = 64
	xs, ys := benchPairs(b, size, pool)
	scratch := gcd.NewScratch(size)
	opt := gcd.Options{}
	if early {
		opt.EarlyBits = size / 2
	}
	totalIters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := scratch.Compute(alg, xs[i%pool], ys[i%pool], opt)
		totalIters += st.Iterations
	}
	b.ReportMetric(float64(totalIters)/float64(b.N), "iters/GCD")
}

func BenchmarkTableIV_Original1024(b *testing.B)    { benchTableIV(b, gcd.Original, 1024, false) }
func BenchmarkTableIV_Fast1024(b *testing.B)        { benchTableIV(b, gcd.Fast, 1024, false) }
func BenchmarkTableIV_Binary1024(b *testing.B)      { benchTableIV(b, gcd.Binary, 1024, false) }
func BenchmarkTableIV_FastBinary1024(b *testing.B)  { benchTableIV(b, gcd.FastBinary, 1024, false) }
func BenchmarkTableIV_Approximate512(b *testing.B)  { benchTableIV(b, gcd.Approximate, 512, false) }
func BenchmarkTableIV_Approximate1024(b *testing.B) { benchTableIV(b, gcd.Approximate, 1024, false) }
func BenchmarkTableIV_Approximate2048(b *testing.B) { benchTableIV(b, gcd.Approximate, 2048, false) }
func BenchmarkTableIV_Approximate4096(b *testing.B) { benchTableIV(b, gcd.Approximate, 4096, false) }
func BenchmarkTableIV_Approximate1024Early(b *testing.B) {
	benchTableIV(b, gcd.Approximate, 1024, true)
}

// ---------------------------------------------------------------------------
// Table V, CPU columns: sequential time per GCD (early-terminate, the
// paper's recommended mode). ns/op is the table cell.

func benchTableVCPU(b *testing.B, alg gcd.Algorithm, size int) {
	const pool = 64
	xs, ys := benchPairs(b, size, pool)
	scratch := gcd.NewScratch(size)
	opt := gcd.Options{EarlyBits: size / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Compute(alg, xs[i%pool], ys[i%pool], opt)
	}
}

func BenchmarkTableV_CPU_Binary512(b *testing.B)       { benchTableVCPU(b, gcd.Binary, 512) }
func BenchmarkTableV_CPU_Binary1024(b *testing.B)      { benchTableVCPU(b, gcd.Binary, 1024) }
func BenchmarkTableV_CPU_Binary2048(b *testing.B)      { benchTableVCPU(b, gcd.Binary, 2048) }
func BenchmarkTableV_CPU_Binary4096(b *testing.B)      { benchTableVCPU(b, gcd.Binary, 4096) }
func BenchmarkTableV_CPU_FastBinary512(b *testing.B)   { benchTableVCPU(b, gcd.FastBinary, 512) }
func BenchmarkTableV_CPU_FastBinary1024(b *testing.B)  { benchTableVCPU(b, gcd.FastBinary, 1024) }
func BenchmarkTableV_CPU_FastBinary2048(b *testing.B)  { benchTableVCPU(b, gcd.FastBinary, 2048) }
func BenchmarkTableV_CPU_FastBinary4096(b *testing.B)  { benchTableVCPU(b, gcd.FastBinary, 4096) }
func BenchmarkTableV_CPU_Approximate512(b *testing.B)  { benchTableVCPU(b, gcd.Approximate, 512) }
func BenchmarkTableV_CPU_Approximate1024(b *testing.B) { benchTableVCPU(b, gcd.Approximate, 1024) }
func BenchmarkTableV_CPU_Approximate2048(b *testing.B) { benchTableVCPU(b, gcd.Approximate, 2048) }
func BenchmarkTableV_CPU_Approximate4096(b *testing.B) { benchTableVCPU(b, gcd.Approximate, 4096) }

// ---------------------------------------------------------------------------
// Table V, GPU columns. GPU-par: the host-parallel bulk executor; ns/op is
// wall time per GCD across all workers. GPU-sim: the UMM model; the
// units/GCD metric is the simulated time.

// benchTableVGPUPar times whole all-pairs corpus runs (one per op) and
// reports the per-GCD wall time as the ns/GCD metric - the Table V cell.
func benchTableVGPUPar(b *testing.B, alg gcd.Algorithm, size int) {
	const m = 96 // 4560 pairs per run
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: m, Bits: size, Seed: int64(size), Pseudo: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	moduli := c.Moduli()
	var perGCD float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bulk.AllPairs(moduli, bulk.Config{Algorithm: alg, Early: true, Kernel: engine.KernelScalar})
		if err != nil {
			b.Fatal(err)
		}
		perGCD = float64(res.Elapsed.Nanoseconds()) / float64(res.Pairs)
	}
	b.ReportMetric(perGCD, "ns/GCD")
}

func BenchmarkTableV_GPUPar_Approximate1024(b *testing.B) {
	benchTableVGPUPar(b, gcd.Approximate, 1024)
}
func BenchmarkTableV_GPUPar_FastBinary1024(b *testing.B) {
	benchTableVGPUPar(b, gcd.FastBinary, 1024)
}
func BenchmarkTableV_GPUPar_Binary1024(b *testing.B) {
	benchTableVGPUPar(b, gcd.Binary, 1024)
}

func benchTableVGPUSim(b *testing.B, alg gcd.Algorithm, size int) {
	const p = 64
	xs, ys := benchPairs(b, size, p)
	machine, err := umm.New(32, 200)
	if err != nil {
		b.Fatal(err)
	}
	var units float64
	var coalesced float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bulk.Simulate(machine, alg, xs, ys, true)
		if err != nil {
			b.Fatal(err)
		}
		units = res.TimePerGCD
		coalesced = res.UMM.CoalescedFraction()
	}
	b.ReportMetric(units, "simunits/GCD")
	b.ReportMetric(coalesced, "coalesced")
}

func BenchmarkTableV_GPUSim_Approximate1024(b *testing.B) {
	benchTableVGPUSim(b, gcd.Approximate, 1024)
}
func BenchmarkTableV_GPUSim_FastBinary1024(b *testing.B) {
	benchTableVGPUSim(b, gcd.FastBinary, 1024)
}
func BenchmarkTableV_GPUSim_Binary1024(b *testing.B) {
	benchTableVGPUSim(b, gcd.Binary, 1024)
}

// ---------------------------------------------------------------------------
// Figure 1 / Section IV: memory operations per iteration.

func BenchmarkFig1_MemOpsPerIteration1024(b *testing.B) {
	const pool = 64
	xs, ys := benchPairs(b, 1024, pool)
	scratch := gcd.NewScratch(1024)
	opt := gcd.Options{EarlyBits: 512}
	var ops, iters int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := scratch.Compute(gcd.Approximate, xs[i%pool], ys[i%pool], opt)
		ops += st.MemOps
		iters += int64(st.Iterations)
	}
	b.ReportMetric(float64(ops)/float64(iters), "memops/iter")
	b.ReportMetric(3.0*1024/32, "paper-3s/d")
}

// ---------------------------------------------------------------------------
// Figure 2: the warp-dispatch example; ns/op is simulator overhead, the
// metric asserts the 8-time-unit result.

func BenchmarkFig2_WarpDispatch(b *testing.B) {
	machine, err := umm.New(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	addrs := []int64{0, 5, 9, 2, 12, 13, 14, 15}
	var units int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		units = machine.Batch(addrs).Time
	}
	if units != 8 {
		b.Fatalf("expected 8 time units, got %d", units)
	}
	b.ReportMetric(float64(units), "timeunits")
}

// ---------------------------------------------------------------------------
// Figure 3 / Theorem 1: layout comparison.

func benchFig3(b *testing.B, column bool) {
	const (
		w, l, p, steps, n = 32, 200, 128, 64, 32
	)
	machine, err := umm.New(w, l)
	if err != nil {
		b.Fatal(err)
	}
	idxs := make([]int, steps)
	for i := range idxs {
		idxs[i] = (i * 7) % n
	}
	var units int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progs := make([]umm.Program, p)
		for j := 0; j < p; j++ {
			if column {
				progs[j] = umm.ColumnProgram(0, p, j, idxs)
			} else {
				progs[j] = umm.RowProgram(0, n, j, idxs)
			}
		}
		units = machine.Run(progs).Time
	}
	b.ReportMetric(float64(units), "timeunits")
	if column {
		if want := machine.ObliviousTime(p, steps); units != want {
			b.Fatalf("Theorem 1 violated: %d != %d", units, want)
		}
	}
}

func BenchmarkFig3_ColumnWise(b *testing.B) { benchFig3(b, true) }
func BenchmarkFig3_RowWise(b *testing.B)    { benchFig3(b, false) }

// ---------------------------------------------------------------------------
// End-to-end: the attack itself (the paper's motivating workload).

func BenchmarkAttack64Keys512(b *testing.B) {
	moduli, _, err := GenerateWeakCorpus(64, 512, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := New().Run(context.Background(), moduli)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Broken) != 4 {
			b.Fatalf("broke %d keys", len(rep.Broken))
		}
	}
}

// ---------------------------------------------------------------------------
// Section VII: SIMT branch divergence (the paper's explanation for
// Binary's poor GPU showing). The penalty metrics are the reproduced
// quantities.

func BenchmarkSectionVII_Divergence(b *testing.B) {
	var penaltyC, penaltyE float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunDivergence(32, 4, 512, 64, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			switch r.Alg {
			case gcd.Binary:
				penaltyC = r.Penalty
			case gcd.Approximate:
				penaltyE = r.Penalty
			}
		}
	}
	b.ReportMetric(penaltyC, "penaltyC")
	b.ReportMetric(penaltyE, "penaltyE")
}

// ---------------------------------------------------------------------------
// Multicore scaling: the scheduler's speedup-vs-cores gate.
// One op is a full 1/2/4/8-core sweep of the all-pairs engine with
// GOMAXPROCS pinned per point (RunCoreScalingContext also verifies the
// findings are identical at every width). The gate self-enforces a
// >= 1.8x speedup at 4 cores; machines without 4 CPUs skip the gate
// LOUDLY (the log line below is what CI surfaces as an annotation)
// because an oversubscribed 4-goroutine pool on fewer cores measures
// scheduling fairness, not scaling.

func BenchmarkCoreScaling(b *testing.B) {
	cfg := experiments.CoreScalingConfig{
		Cores: []int{1, 2, 4, 8}, Moduli: 96, Bits: 512, Seed: 1,
	}
	var ps []experiments.CoreScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		ps, err = experiments.RunCoreScalingContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range ps {
		tag := strconv.Itoa(p.Cores) + "c"
		b.ReportMetric(p.NsPerPair, "ns/pair-"+tag)
		b.ReportMetric(p.Speedup, "speedup-"+tag)
		b.ReportMetric(p.Efficiency, "efficiency-"+tag)
	}
	if runtime.NumCPU() < 4 {
		b.Logf("SKIPPED multicore gate: this machine has %d CPUs, the >= 1.8x @ 4 cores bound needs 4; the sweep above ran oversubscribed and its efficiency columns are not a scaling measurement", runtime.NumCPU())
		return
	}
	for _, p := range ps {
		if p.Cores == 4 && p.Speedup < 1.8 {
			b.Fatalf("4-core speedup %.2fx, want >= 1.8x (ns/pair: 1c=%.0f 4c=%.0f)",
				p.Speedup, ps[0].NsPerPair, p.NsPerPair)
		}
	}
}

// ---------------------------------------------------------------------------
// Baseline: Bernstein batch GCD over the same corpus as the all-pairs
// bench (compare ns/GCD-equivalent directly with GPUPar above). Run uses
// a GOMAXPROCS-sized pool, matching GPUPar's default, so this stays
// pool-vs-pool; internal/batchgcd's BenchmarkBatchGCD sweeps pool sizes.

func BenchmarkBaseline_BatchGCD96x1024(b *testing.B) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 96, Bits: 1024, Seed: 1024, Pseudo: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	moduli := make([]*big.Int, 96)
	for i, k := range c.Keys {
		moduli[i] = k.N.ToBig()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batchgcd.RunContext(context.Background(), moduli, batchgcd.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
