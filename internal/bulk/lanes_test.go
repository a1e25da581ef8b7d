package bulk

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
)

// lanesCfg returns an Approximate Config, which runs on the lane kernel,
// over the given lane width.
func lanesCfg(width int) Config {
	return Config{Algorithm: gcd.Approximate, Early: true, LaneWidth: width}
}

// scalarCfg returns the scalar-kernel reference Config.
func scalarCfg() Config {
	return Config{Algorithm: gcd.Approximate, Early: true, Kernel: engine.KernelScalar}
}

// TestLanesMatchesScalarFindings is the wiring-level identity check: the
// all-pairs and hybrid engines produce byte-identical factor lists under
// the lanes kernel at several lane widths — including L=1 and group/tile
// sizes that leave the final lockstep batches ragged.
func TestLanesMatchesScalarFindings(t *testing.T) {
	c := corpus(t, 24, 96, 4, 51)
	moduli := c.Moduli()
	ref := scalarCfg()
	ref.GroupSize = 5
	scalar, err := AllPairs(moduli, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(scalar.Factors) == 0 {
		t.Fatal("corpus planted no factors")
	}
	for _, width := range []int{1, 4, 16, 64} {
		for _, early := range []bool{false, true} {
			t.Run(fmt.Sprintf("pairs/width=%d/early=%v", width, early), func(t *testing.T) {
				cfg := lanesCfg(width)
				cfg.Early = early
				cfg.Workers = 3
				cfg.GroupSize = 5
				res, err := AllPairs(moduli, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Pairs != scalar.Pairs {
					t.Fatalf("covered %d pairs, want %d", res.Pairs, scalar.Pairs)
				}
				sameFactors(t, res.Factors, scalar.Factors)
			})
		}
		t.Run(fmt.Sprintf("hybrid/width=%d", width), func(t *testing.T) {
			cfg := lanesCfg(width)
			cfg.Workers = 2
			cfg.TileSize = 7
			res, err := Hybrid(moduli, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pairs != scalar.Pairs {
				t.Fatalf("covered %d pairs, want %d", res.Pairs, scalar.Pairs)
			}
			sameFactors(t, res.Factors, scalar.Factors)
		})
	}
}

// lanesBatches runs fn with a fresh metrics registry installed in cfg
// and returns bulk_lanes_batches_total.
func lanesBatches(t *testing.T, cfg Config, fn func(Config) (*Result, error)) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := fn(cfg); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot().Counters["bulk_lanes_batches_total"]
}

// TestLanesRequiresApproximate: the lane kernel implements only the
// Approximate algorithm, so the executor follows the algorithm on every
// engine front-end — Approximate runs lane batches, the other four
// algorithms run scalar with identical findings, and the scalar pin
// turns the lanes off.
func TestLanesRequiresApproximate(t *testing.T) {
	c := corpus(t, 12, 64, 2, 52)
	moduli := c.Moduli()
	engines := map[string]func(Config) (*Result, error){
		"pairs":  func(cfg Config) (*Result, error) { return AllPairs(moduli, cfg) },
		"hybrid": func(cfg Config) (*Result, error) { return Hybrid(moduli, cfg) },
	}
	for name, run := range engines {
		if n := lanesBatches(t, Config{Algorithm: gcd.Approximate}, run); n <= 0 {
			t.Errorf("%s: Approximate ran no lane batches", name)
		}
		if n := lanesBatches(t, Config{Algorithm: gcd.Approximate, Kernel: engine.KernelScalar}, run); n != 0 {
			t.Errorf("%s: scalar pin ran %d lane batches", name, n)
		}
		for _, alg := range gcd.Algorithms {
			if alg == gcd.Approximate {
				continue
			}
			if n := lanesBatches(t, Config{Algorithm: alg}, run); n != 0 {
				t.Errorf("%s: %v ran %d lane batches", name, alg, n)
			}
		}
	}
}

// TestLanesPanicQuarantine: a panic injected mid-batch — at the enqueue
// fault point of a targeted pair — quarantines exactly that pair while
// every other pair of the same lockstep batch still gets its exact
// verdict, so the findings match a clean run's.
func TestLanesPanicQuarantine(t *testing.T) {
	c := corpus(t, 16, 64, 2, 53)
	moduli := c.Moduli()
	ref := scalarCfg()
	ref.GroupSize = 4
	clean, err := AllPairs(moduli, ref)
	if err != nil {
		t.Fatal(err)
	}
	planted := map[[2]int]bool{}
	for _, pp := range c.Planted {
		planted[[2]int{pp.I, pp.J}] = true
	}
	target := [2]int{-1, -1}
	for i := 0; i < 16 && target[0] < 0; i++ {
		for j := i + 1; j < 16; j++ {
			if !planted[[2]int{i, j}] {
				target = [2]int{i, j}
				break
			}
		}
	}
	plan := faultinject.NewPlan()
	plan.PanicAtIJ = &target
	cfg := lanesCfg(8)
	cfg.Workers = 3
	cfg.GroupSize = 4
	cfg.Fault = plan.Hook()
	res, err := AllPairs(moduli, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != clean.Pairs {
		t.Fatalf("computed %d pairs, want %d", res.Pairs, clean.Pairs)
	}
	if len(res.BadPairs) != 1 || res.BadPairs[0].I != target[0] || res.BadPairs[0].J != target[1] {
		t.Fatalf("BadPairs = %+v, want exactly the injected %v", res.BadPairs, target)
	}
	sameFactors(t, res.Factors, clean.Factors)

	// The ordinal variant must also be absorbed without crashing.
	for _, at := range []int64{0, 7, 33} {
		plan := faultinject.NewPlan()
		plan.PanicAtPair = at
		cfg := lanesCfg(4)
		cfg.Workers = 2
		cfg.GroupSize = 4
		cfg.Fault = plan.Hook()
		res, err := AllPairs(moduli, cfg)
		if err != nil {
			t.Fatalf("panic at ordinal %d: %v", at, err)
		}
		if res.Pairs != clean.Pairs || len(res.BadPairs) != 1 {
			t.Fatalf("panic at ordinal %d: pairs=%d bad=%+v", at, res.Pairs, res.BadPairs)
		}
	}
}

// TestLanesJournalResumeAcrossKernels: the kernel is deliberately not
// part of the journal fingerprint, so a run checkpointed under the
// scalar kernel resumes under the lanes kernel (and vice versa) with
// findings identical to an uninterrupted run.
func TestLanesJournalResumeAcrossKernels(t *testing.T) {
	c := corpus(t, 20, 64, 3, 54)
	moduli := c.Moduli()
	base := scalarCfg()
	base.GroupSize = 4
	clean, err := AllPairs(moduli, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, firstLanes := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = 40
		plan.Cancel = cancel
		kcfg := base
		if firstLanes {
			kcfg.Kernel = engine.KernelLanes
			kcfg.LaneWidth = 4
		}
		kcfg.Workers = 3
		kcfg.Checkpoint = w
		kcfg.Fault = plan.Hook()
		res, err := AllPairsContext(ctx, moduli, kcfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !res.Canceled {
			t.Fatal("run completed before the cancel fired")
		}

		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := checkpoint.OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := base
		if !firstLanes { // resume under the other kernel
			rcfg.Kernel = engine.KernelLanes
			rcfg.LaneWidth = 16
		}
		rcfg.Resume = st
		rcfg.Checkpoint = w2
		resumed, err := AllPairs(moduli, rcfg)
		if err != nil {
			t.Fatalf("resume (firstLanes=%v): %v", firstLanes, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.Canceled || resumed.Pairs != clean.Pairs {
			t.Fatalf("resumed: canceled=%v pairs=%d want %d", resumed.Canceled, resumed.Pairs, clean.Pairs)
		}
		if resumed.ResumedPairs != res.Pairs {
			t.Fatalf("replayed %d pairs, journal had %d", resumed.ResumedPairs, res.Pairs)
		}
		sameFactors(t, resumed.Factors, clean.Factors)
	}
}

// TestLanesMetrics: a lanes run populates the bulk_lanes_* instruments
// with self-consistent values; a scalar run leaves them untouched.
func TestLanesMetrics(t *testing.T) {
	c := corpus(t, 16, 64, 2, 55)
	moduli := c.Moduli()
	reg := obs.NewRegistry()
	cfg := lanesCfg(8)
	cfg.Workers = 2
	cfg.Metrics = reg
	res, err := AllPairs(moduli, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	retired := snap.Counters["bulk_lanes_retirements_total"]
	if retired != res.Pairs {
		t.Errorf("bulk_lanes_retirements_total = %d, want %d retired pairs", retired, res.Pairs)
	}
	if snap.Counters["bulk_lanes_batches_total"] <= 0 {
		t.Error("bulk_lanes_batches_total not populated")
	}
	if snap.Counters["bulk_lanes_supersteps_total"] <= 0 {
		t.Error("bulk_lanes_supersteps_total not populated")
	}
	if occ := snap.Gauges["bulk_lanes_occupancy"]; occ <= 0 || occ > 1 {
		t.Errorf("bulk_lanes_occupancy = %v, want in (0, 1]", occ)
	}

	scalarReg := obs.NewRegistry()
	scfg := scalarCfg()
	scfg.Metrics = scalarReg
	if _, err := AllPairs(moduli, scfg); err != nil {
		t.Fatal(err)
	}
	if n := scalarReg.Snapshot().Counters["bulk_lanes_batches_total"]; n != 0 {
		t.Errorf("scalar run incremented bulk_lanes_batches_total to %d", n)
	}
}

// TestLanesBoundedQueueKillResume: a schedule block larger than the lane
// queue bound runs as several lockstep batches before it is sealed. A
// run killed mid-scan still journals only complete blocks — every record
// carries its block's full pair count — and the resumed run's findings
// equal the scalar oracle's.
func TestLanesBoundedQueueKillResume(t *testing.T) {
	c := corpus(t, 40, 64, 4, 56)
	moduli := c.Moduli()
	const width, group = 2, 16 // queue bound 64 pairs; blocks hold 120-256
	bound := int64(laneQueueBatches * width)
	ref := scalarCfg()
	ref.GroupSize = group
	clean, err := AllPairs(moduli, ref)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(len(moduli), group)
	if err != nil {
		t.Fatal(err)
	}
	blockPairs := func(u int) (n int64) {
		sched.BlockPairs(sched.Blocks()[u], func(int, int) { n++ })
		return n
	}
	for _, killAt := range []int64{70, 300, 500} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = killAt
		plan.Cancel = cancel
		reg := obs.NewRegistry()
		kcfg := lanesCfg(width)
		kcfg.GroupSize = group
		kcfg.Workers = 2
		kcfg.Checkpoint = w
		kcfg.Fault = plan.Hook()
		kcfg.Metrics = reg
		res, err := AllPairsContext(ctx, moduli, kcfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !res.Canceled {
			t.Fatalf("kill at %d: run completed before the cancel fired", killAt)
		}

		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		var wantBatches int64
		for u, rec := range st.Done {
			if want := blockPairs(u); rec.Pairs != want {
				t.Fatalf("kill at %d: block %d journaled with %d of %d pairs", killAt, u, rec.Pairs, want)
			}
			wantBatches += (rec.Pairs + bound - 1) / bound
		}
		if got := reg.Snapshot().Counters["bulk_lanes_batches_total"]; got != wantBatches {
			t.Fatalf("kill at %d: %d lane batches, want %d (one per %d queued pairs)", killAt, got, wantBatches, bound)
		}

		w2, err := checkpoint.OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := lanesCfg(0)
		rcfg.GroupSize = group
		rcfg.Workers = 3
		rcfg.Resume = st
		rcfg.Checkpoint = w2
		resumed, err := AllPairs(moduli, rcfg)
		if err != nil {
			t.Fatalf("resume after kill at %d: %v", killAt, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.Canceled || resumed.Pairs != clean.Pairs {
			t.Fatalf("kill at %d: resumed canceled=%v pairs=%d, want %d", killAt, resumed.Canceled, resumed.Pairs, clean.Pairs)
		}
		sameFactors(t, resumed.Factors, clean.Factors)
	}
}
