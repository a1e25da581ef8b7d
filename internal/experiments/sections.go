package experiments

import (
	"fmt"
	"math/rand"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/tabfmt"
	"bulkgcd/internal/umm"
)

// ---------------------------------------------------------------------------
// Section V statistics: beta > 0 frequency and approx() case distribution.

// BetaStatsConfig parameterizes the Section V measurement.
type BetaStatsConfig struct {
	Sizes []int
	Pairs int
	Seed  int64
}

// BetaStatsResult reports the frequency of the beta > 0 path.
type BetaStatsResult struct {
	Cfg BetaStatsConfig
	// PerSize[size] = (iterations, betaNonZero).
	PerSize map[int][2]int64
	// Cases[size][case] tallies approx() cases.
	Cases map[int][8]int
}

// RunBetaStats measures how often approx() returns beta > 0 (the paper:
// 1191 times in 2.0e11 calls at 4096 bits, i.e. < 1e-8) and the approx()
// case mix.
func RunBetaStats(cfg BetaStatsConfig) (*BetaStatsResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultSizes
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 200
	}
	res := &BetaStatsResult{
		Cfg:     cfg,
		PerSize: map[int][2]int64{},
		Cases:   map[int][8]int{},
	}
	for _, size := range cfg.Sizes {
		xs, ys, err := pairSource(size, cfg.Pairs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		scratch := gcd.NewScratch(size)
		var iters, beta int64
		var cases [8]int
		for i := range xs {
			_, st := scratch.Compute(gcd.Approximate, xs[i], ys[i], gcd.Options{})
			iters += int64(st.Iterations)
			beta += int64(st.BetaNonZero)
			for c := 0; c < 8; c++ {
				cases[c] += st.CaseCounts[c]
			}
		}
		res.PerSize[size] = [2]int64{iters, beta}
		res.Cases[size] = cases
	}
	return res, nil
}

// BetaFraction returns the fraction of iterations with beta > 0 for size.
func (r *BetaStatsResult) BetaFraction(size int) float64 {
	v := r.PerSize[size]
	if v[0] == 0 {
		return 0
	}
	return float64(v[1]) / float64(v[0])
}

// Table renders the Section V statistics.
func (r *BetaStatsResult) Table() *tabfmt.Table {
	t := tabfmt.NewTable("size", "iterations", "beta>0", "fraction", "case 4-A", "4-B", "4-C", "other")
	for _, s := range r.Cfg.Sizes {
		v := r.PerSize[s]
		c := r.Cases[s]
		other := c[gcd.Case1] + c[gcd.Case2A] + c[gcd.Case2B] + c[gcd.Case3A] + c[gcd.Case3B]
		t.AddRowF(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", v[0]),
			fmt.Sprintf("%d", v[1]),
			fmt.Sprintf("%.2e", r.BetaFraction(s)),
			fmt.Sprintf("%d", c[gcd.Case4A]),
			fmt.Sprintf("%d", c[gcd.Case4B]),
			fmt.Sprintf("%d", c[gcd.Case4C]),
			fmt.Sprintf("%d", other),
		)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 1 / Section IV: memory operations per iteration.

// MemOpsResult reports measured word-memory operations per iteration
// against the analytic 3*s/d bound.
type MemOpsResult struct {
	Sizes []int
	// PerIter[size] = measured mean memory operations per iteration.
	PerIter map[int]float64
	// Bound[size] = 3*s/d.
	Bound map[int]float64
}

// RunMemOps validates the Section IV accounting on Approximate Euclidean
// in early-terminate mode (operands keep at least s/2 bits, so the count
// stays near the bound).
func RunMemOps(sizes []int, pairs int, seed int64) (*MemOpsResult, error) {
	if len(sizes) == 0 {
		sizes = DefaultSizes
	}
	if pairs <= 0 {
		pairs = 100
	}
	res := &MemOpsResult{Sizes: sizes, PerIter: map[int]float64{}, Bound: map[int]float64{}}
	for _, size := range sizes {
		xs, ys, err := pairSource(size, pairs, seed)
		if err != nil {
			return nil, err
		}
		scratch := gcd.NewScratch(size)
		var sum float64
		for i := range xs {
			_, st := scratch.Compute(gcd.Approximate, xs[i], ys[i], gcd.Options{EarlyBits: size / 2})
			sum += float64(st.MemOps) / float64(st.Iterations)
		}
		res.PerIter[size] = sum / float64(len(xs))
		res.Bound[size] = 3 * float64(size) / 32
	}
	return res, nil
}

// Table renders the memory-operation comparison.
func (r *MemOpsResult) Table() *tabfmt.Table {
	t := tabfmt.NewTable("size", "mem ops/iter", "3*s/d", "ratio")
	for _, s := range r.Sizes {
		t.AddRowF(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.1f", r.PerIter[s]),
			fmt.Sprintf("%.1f", r.Bound[s]),
			fmt.Sprintf("%.3f", r.PerIter[s]/r.Bound[s]),
		)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 3 / Theorem 1: layout and obliviousness on the UMM.

// LayoutResult compares column-wise and row-wise bulk execution of the
// same oblivious access pattern (Figure 3's point).
type LayoutResult struct {
	Width, Latency, Threads, Steps int
	ColumnTime, RowTime            int64
	ColumnCoalesced, RowCoalesced  float64
	TheoremTime                    int64
}

// RunLayout executes the Figure 3 experiment on machine (w, l) with p
// threads and t random oblivious steps over an n-element logical array.
func RunLayout(width, latency, p, steps, n int, seed int64) (*LayoutResult, error) {
	m, err := umm.New(width, latency)
	if err != nil {
		return nil, err
	}
	if p%width != 0 {
		return nil, fmt.Errorf("experiments: threads %d not a multiple of width %d", p, width)
	}
	r := rand.New(rand.NewSource(seed))
	idxs := make([]int, steps)
	for i := range idxs {
		idxs[i] = r.Intn(n)
	}
	col := make([]umm.Program, p)
	row := make([]umm.Program, p)
	for j := 0; j < p; j++ {
		col[j] = umm.ColumnProgram(0, p, j, idxs)
		row[j] = umm.RowProgram(0, n, j, idxs)
	}
	colStats := m.Run(col)
	rowStats := m.Run(row)
	return &LayoutResult{
		Width: width, Latency: latency, Threads: p, Steps: steps,
		ColumnTime:      colStats.Time,
		RowTime:         rowStats.Time,
		ColumnCoalesced: colStats.CoalescedFraction(),
		RowCoalesced:    rowStats.CoalescedFraction(),
		TheoremTime:     m.ObliviousTime(int64(p), int64(steps)),
	}, nil
}

// SemiObliviousResult measures the coalesced fraction of the real bulk
// GCD execution (Section VI's semi-oblivious claim).
type SemiObliviousResult struct {
	Alg            gcd.Algorithm
	Size, Threads  int
	CoalescedFrac  float64
	TimePerGCD     float64
	ObliviousLower float64 // per-GCD time if the run were perfectly oblivious
}

// RunSemiOblivious simulates the bulk GCD of p random pairs on the UMM and
// reports how close the semi-oblivious execution comes to the oblivious
// bound.
func RunSemiOblivious(m *umm.Machine, alg gcd.Algorithm, size, p int, early bool, seed int64) (*SemiObliviousResult, error) {
	xs, ys, err := pairSource(size, p, seed)
	if err != nil {
		return nil, err
	}
	res, err := bulk.Simulate(m, alg, xs, ys, early)
	if err != nil {
		return nil, err
	}
	// The oblivious lower bound replays the same total accesses fully
	// coalesced: ceil(accesses/p) rounds at p/w + l - 1 each.
	rounds := (res.UMM.Accesses + int64(p) - 1) / int64(p)
	lower := float64(m.ObliviousTime(int64(p), rounds)) / float64(p)
	return &SemiObliviousResult{
		Alg: alg, Size: size, Threads: p,
		CoalescedFrac:  res.UMM.CoalescedFraction(),
		TimePerGCD:     res.TimePerGCD,
		ObliviousLower: lower,
	}, nil
}
