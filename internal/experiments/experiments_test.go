package experiments

import (
	"strings"
	"testing"

	"bulkgcd/internal/gcd"
	"bulkgcd/internal/umm"
)

// TestTableIVShape asserts the paper's four observations on Table IV with
// a reduced but statistically sufficient sample:
//  1. early termination halves the iteration count,
//  2. iterations are proportional to the modulus length,
//  3. (E) is about half of (D) and a quarter of (C),
//  4. (E) and (B) agree almost exactly.
func TestTableIVShape(t *testing.T) {
	res, err := RunTableIV(TableIVConfig{Sizes: []int{512, 1024}, Pairs: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{512, 1024} {
		for _, alg := range gcd.Algorithms {
			m := res.Mean[alg][size]
			ratio := m[1] / m[0]
			if ratio < 0.4 || ratio > 0.6 {
				t.Errorf("%v %d: early/non ratio %.3f, want ~0.5", alg, size, ratio)
			}
		}
		e := res.Mean[gcd.Approximate][size]
		d := res.Mean[gcd.FastBinary][size]
		c := res.Mean[gcd.Binary][size]
		b := res.Mean[gcd.Fast][size]
		if r := d[0] / e[0]; r < 1.7 || r > 2.3 {
			t.Errorf("size %d: (D)/(E) = %.2f, want ~2", size, r)
		}
		if r := c[0] / e[0]; r < 3.2 || r > 4.6 {
			t.Errorf("size %d: (C)/(E) = %.2f, want ~4", size, r)
		}
		if rel := (e[0] - b[0]) / b[0]; rel < -0.001 || rel > 0.001 {
			t.Errorf("size %d: (E)-(B) relative %.6f, want |rel| < 0.1%%", size, rel)
		}
	}
	// Proportionality: 1024-bit counts ~2x 512-bit counts.
	for _, alg := range gcd.Algorithms {
		r := res.Mean[alg][1024][0] / res.Mean[alg][512][0]
		if r < 1.85 || r > 2.15 {
			t.Errorf("%v: 1024/512 iteration ratio %.3f, want ~2", alg, r)
		}
	}
	// Paper's absolute anchors (Table IV, non-terminate 1024): (E) 380.8,
	// (C) 1445.1, (D) 723.6, (A) 598.4. Allow 3% statistical slack.
	anchors := map[gcd.Algorithm]float64{
		gcd.Original:    598.4,
		gcd.Fast:        380.8,
		gcd.Binary:      1445.1,
		gcd.FastBinary:  723.6,
		gcd.Approximate: 380.8,
	}
	for alg, want := range anchors {
		got := res.Mean[alg][1024][0]
		if got < want*0.97 || got > want*1.03 {
			t.Errorf("%v 1024 NT mean %.1f, paper %.1f (3%% tolerance)", alg, got, want)
		}
	}
	// The rendered table carries every algorithm row plus the diff row.
	out := res.Table().String()
	for _, needle := range []string{"(A)", "(B)", "(C)", "(D)", "(E)", "(E)-(B)", "NT 512", "ET 1024"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
}

// TestTableVShape asserts Table V's qualitative content on a small run:
// (E) < (D) < (C) in the CPU path's memory operations per GCD, in
// simulated GPU time and on the device model, and positive timings. No
// assertion compares wall-clock times, which follow the host's load.
func TestTableVShape(t *testing.T) {
	res, err := RunTableV(TableVConfig{
		Sizes:      []int{512},
		CPUPairs:   30,
		BulkModuli: 48,
		SimThreads: 32,
		Early:      true,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cC := res.Cells[gcd.Binary][512]
	cD := res.Cells[gcd.FastBinary][512]
	cE := res.Cells[gcd.Approximate][512]
	// The CPU path's work, counted rather than timed.
	if !(cE.MemOpsPerGCD < cD.MemOpsPerGCD && cD.MemOpsPerGCD < cC.MemOpsPerGCD) {
		t.Errorf("CPU memory-op ranking violated: E=%.0f D=%.0f C=%.0f",
			cE.MemOpsPerGCD, cD.MemOpsPerGCD, cC.MemOpsPerGCD)
	}
	if !(cE.SimUnitsPerGCD < cD.SimUnitsPerGCD && cD.SimUnitsPerGCD < cC.SimUnitsPerGCD) {
		t.Errorf("sim ranking violated: E=%.0f D=%.0f C=%.0f",
			cE.SimUnitsPerGCD, cD.SimUnitsPerGCD, cC.SimUnitsPerGCD)
	}
	if !(cE.DevPerGCD < cD.DevPerGCD && cD.DevPerGCD < cC.DevPerGCD) {
		t.Errorf("device ranking violated: E=%v D=%v C=%v",
			cE.DevPerGCD, cD.DevPerGCD, cC.DevPerGCD)
	}
	if cC.DevDivergence < 1.5 || cE.DevDivergence > 1.01 {
		t.Errorf("device divergence penalties wrong: C=%.2f E=%.2f",
			cC.DevDivergence, cE.DevDivergence)
	}
	if cE.DevBound == "" {
		t.Error("device bound not reported")
	}
	for _, cell := range []*TableVCell{cC, cD, cE} {
		if cell.ParallelPerGCD <= 0 || cell.CPUPerGCD <= 0 {
			t.Errorf("non-positive timing in cell %+v", cell)
		}
		if cell.CoalescedFrac <= 0 || cell.CoalescedFrac >= 1 {
			t.Errorf("coalesced fraction %.3f outside (0,1)", cell.CoalescedFrac)
		}
	}
	out := res.Table().String()
	for _, needle := range []string{"CPU (C)", "GPU-par (E)", "GPU-sim (D)", "GPU-dev (E)", "dev bound (C)", "coalesced (E)"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
}

// TestBetaStats asserts the Section V claim at reduced scale: beta > 0 is
// at most ~1e-4 of iterations (the paper measures <1e-8 at its much larger
// sample; zero occurrences are the expected outcome here).
func TestBetaStats(t *testing.T) {
	res, err := RunBetaStats(BetaStatsConfig{Sizes: []int{512, 1024}, Pairs: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{512, 1024} {
		if v := res.PerSize[size]; v[0] < 10000 {
			t.Fatalf("size %d: sample too small (%d iterations)", size, v[0])
		}
		if f := res.BetaFraction(size); f > 1e-4 {
			t.Errorf("size %d: beta fraction %.2e too high", size, f)
		}
		// Case 4-A dominates for RSA-scale operands.
		c := res.Cases[size]
		if c[gcd.Case4A] < c[gcd.Case4B]+c[gcd.Case4C] {
			t.Errorf("size %d: case mix unexpected: %v", size, c)
		}
	}
	if !strings.Contains(res.Table().String(), "fraction") {
		t.Error("beta table missing header")
	}
}

// TestMemOps asserts the Figure 1 / Section IV accounting: per-iteration
// memory operations in early-terminate mode sit between half the bound
// (operands shrink towards s/2) and the bound itself.
func TestMemOps(t *testing.T) {
	res, err := RunMemOps([]int{512, 1024}, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{512, 1024} {
		got := res.PerIter[size]
		bound := res.Bound[size]
		if got > bound+4 {
			t.Errorf("size %d: %.1f ops/iter above 3s/d = %.1f", size, got, bound)
		}
		if got < bound/2 {
			t.Errorf("size %d: %.1f ops/iter below half the bound", size, got)
		}
	}
	if !strings.Contains(res.Table().String(), "3*s/d") {
		t.Error("memops table missing bound column")
	}
}

// TestRunLayout asserts the Figure 3 result: column-wise equals the
// Theorem 1 closed form and is fully coalesced; row-wise is w times more
// group traffic.
func TestRunLayout(t *testing.T) {
	res, err := RunLayout(8, 16, 64, 40, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColumnTime != res.TheoremTime {
		t.Errorf("column-wise time %d != Theorem 1 %d", res.ColumnTime, res.TheoremTime)
	}
	if res.ColumnCoalesced != 1 || res.RowCoalesced != 0 {
		t.Errorf("coalesced fractions: col %.2f row %.2f", res.ColumnCoalesced, res.RowCoalesced)
	}
	if res.RowTime <= res.ColumnTime {
		t.Errorf("row-wise (%d) not slower than column-wise (%d)", res.RowTime, res.ColumnTime)
	}
	if _, err := RunLayout(8, 16, 63, 10, 4, 1); err == nil {
		t.Error("non-multiple thread count accepted")
	}
}

// TestRunSemiOblivious asserts Section VI's semi-oblivious claim for the
// bulk Approximate GCD: mostly coalesced, and within a small factor of the
// oblivious lower bound.
func TestRunSemiOblivious(t *testing.T) {
	m, err := umm.New(32, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSemiOblivious(m, gcd.Approximate, 512, 64, true, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoalescedFrac <= 0.05 || res.CoalescedFrac >= 1 {
		t.Errorf("coalesced fraction %.3f outside (0.05, 1)", res.CoalescedFrac)
	}
	if res.TimePerGCD < res.ObliviousLower {
		t.Errorf("simulated time %.0f below the oblivious bound %.0f", res.TimePerGCD, res.ObliviousLower)
	}
	if res.TimePerGCD > 4*res.ObliviousLower {
		t.Errorf("simulated time %.0f more than 4x the oblivious bound %.0f; not semi-oblivious",
			res.TimePerGCD, res.ObliviousLower)
	}
}
