package bulkgcd

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"path/filepath"
	"strings"
	"testing"
)

// apiCorpus builds a small planted corpus plus the set of indices the
// attack must break.
func apiCorpus(t *testing.T) ([]*big.Int, map[int]bool) {
	t.Helper()
	moduli, planted, err := GenerateWeakCorpus(24, 256, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, pp := range planted {
		want[pp.I], want[pp.J] = true, true
	}
	return moduli, want
}

// checkBroken asserts the report breaks exactly the planted indices with
// verified factorizations.
func checkBroken(t *testing.T, rep *Report, want map[int]bool) {
	t.Helper()
	if len(rep.Broken) != len(want) {
		t.Fatalf("broke %d keys, want %d", len(rep.Broken), len(want))
	}
	for _, bk := range rep.Broken {
		if !want[bk.Index] {
			t.Errorf("key %d broken but not planted", bk.Index)
		}
		if new(big.Int).Mul(bk.P, bk.Q).Cmp(bk.N) != 0 {
			t.Errorf("key %d: P*Q != N", bk.Index)
		}
		if bk.D == nil {
			t.Errorf("key %d: private exponent not recovered", bk.Index)
		}
	}
}

// TestAttackAPIEngines runs the redesigned public API with every engine
// and asserts identical findings.
func TestAttackAPIEngines(t *testing.T) {
	moduli, want := apiCorpus(t)
	for _, eng := range Engines {
		t.Run(eng.String(), func(t *testing.T) {
			rep, err := New(WithEngine(eng), WithWorkers(2), WithTileSize(4)).
				Run(context.Background(), moduli)
			if err != nil {
				t.Fatal(err)
			}
			checkBroken(t, rep, want)
			if rep.Engine != eng {
				t.Errorf("Report.Engine = %v, want %v", rep.Engine, eng)
			}
			if eng != EngineBatch && rep.Pairs != rep.TotalPairs {
				t.Errorf("covered %d of %d pairs", rep.Pairs, rep.TotalPairs)
			}
		})
	}
}

// TestAttackAPIDefaults exercises plain New(): pairs engine, early
// termination, Approximate, e = 65537.
func TestAttackAPIDefaults(t *testing.T) {
	moduli, want := apiCorpus(t)
	rep, err := New().Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	checkBroken(t, rep, want)
	if rep.Engine != EnginePairs {
		t.Errorf("default engine = %v, want pairs", rep.Engine)
	}
	if rep.Stats.Iterations == 0 {
		t.Error("no iteration statistics collected")
	}
}

// TestAttackAPICheckpointResume interrupts a checkpointed hybrid run,
// then reruns with the same journal path: the second run must resume
// (not restart) and produce the complete findings.
func TestAttackAPICheckpointResume(t *testing.T) {
	moduli, want := apiCorpus(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	a := New(
		WithEngine(EngineHybrid), WithTileSize(4), WithWorkers(1),
		WithCheckpoint(path),
		WithProgress(func(done, total int64) {
			if done > 0 {
				cancel()
			}
		}),
	)
	rep, err := a.Run(ctx, moduli)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Skip("run completed before the cancel landed; nothing to resume")
	}

	rep2, err := New(
		WithEngine(EngineHybrid), WithTileSize(4), WithWorkers(1),
		WithCheckpoint(path),
	).Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Canceled {
		t.Fatal("resumed run reported canceled")
	}
	if rep2.ResumedPairs == 0 {
		t.Error("second run did not resume from the journal")
	}
	checkBroken(t, rep2, want)
}

// TestAttackAPICheckpointMismatch points a run at a journal from a
// different configuration: it must start over (fresh journal), not fail
// or resume.
func TestAttackAPICheckpointMismatch(t *testing.T) {
	moduli, want := apiCorpus(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := New(WithTileSize(4), WithEngine(EngineHybrid), WithCheckpoint(path)).
		Run(context.Background(), moduli); err != nil {
		t.Fatal(err)
	}
	rep, err := New(WithTileSize(8), WithEngine(EngineHybrid), WithCheckpoint(path)).
		Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedPairs != 0 {
		t.Errorf("resumed %d pairs from a mismatched journal", rep.ResumedPairs)
	}
	checkBroken(t, rep, want)
}

// TestAttackAPIMetricsAndTrace asserts WithMetrics emits Prometheus
// text including the hybrid filter counters and WithTrace emits JSONL.
func TestAttackAPIMetricsAndTrace(t *testing.T) {
	moduli, _ := apiCorpus(t)
	var metrics, trace bytes.Buffer
	_, err := New(
		WithEngine(EngineHybrid), WithTileSize(4),
		WithMetrics(&metrics), WithTrace(&trace),
	).Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bulk_hybrid_filter_gcds_total", "attack_broken_keys_total", "# TYPE"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics output missing %q:\n%s", want, metrics.String())
		}
	}
	if !strings.Contains(trace.String(), `"name":"run"`) {
		t.Errorf("trace output missing run span:\n%s", trace.String())
	}
}

// TestAttackAPIQuarantine feeds a corrupted corpus under WithQuarantine.
func TestAttackAPIQuarantine(t *testing.T) {
	moduli, want := apiCorpus(t)
	bad := append(append([]*big.Int{}, moduli...), big.NewInt(0), big.NewInt(1<<20))
	if _, err := New().Run(context.Background(), bad); err == nil {
		t.Fatal("zero/even moduli accepted without quarantine")
	}
	rep, err := New(WithQuarantine()).Run(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined %d moduli, want 2: %v", len(rep.Quarantined), rep.Quarantined)
	}
	checkBroken(t, rep, want)
}

// TestAttackAPIErrors covers the configuration error paths surfaced by
// Run rather than New.
func TestAttackAPIErrors(t *testing.T) {
	moduli, _ := apiCorpus(t)
	cases := []struct {
		name string
		a    *Attack
		want string
	}{
		{"bad engine", New(WithEngine(Engine(42))), "unknown engine"},
		{"bad algorithm", New(WithAlgorithm(Algorithm(42))), "unknown algorithm"},
		{"batch checkpoint", New(WithEngine(EngineBatch), WithCheckpoint(filepath.Join(t.TempDir(), "j.jsonl"))), "pairs or hybrid"},
		{"batch quarantine", New(WithEngine(EngineBatch), WithQuarantine()), "pairs or hybrid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.a.Run(context.Background(), moduli)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestEngineParse covers the Engine enum round trip, case-insensitive
// matching, and the rejection of unknown names (including the retired
// "allpairs" spelling).
func TestEngineParse(t *testing.T) {
	for _, eng := range Engines {
		got, err := ParseEngine(eng.String())
		if err != nil || got != eng {
			t.Errorf("ParseEngine(%q) = %v, %v", eng.String(), got, err)
		}
	}
	if got, err := ParseEngine("Hybrid"); err != nil || got != EngineHybrid {
		t.Errorf("ParseEngine(Hybrid) = %v, %v", got, err)
	}
	for _, bad := range []string{"gpu", "allpairs"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine accepted %q", bad)
		}
	}
	if s := Engine(42).String(); s != "Engine(42)" {
		t.Errorf("unknown engine String = %q", s)
	}
	if s := fmt.Sprint(EnginePairs, EngineBatch, EngineHybrid); s != "pairs batch hybrid" {
		t.Errorf("engine names = %q", s)
	}
}

// TestAttackAPIHybridMatchesPairsModerate is the byte-level parity
// check at the public surface on a moderate corpus: identical Broken
// and Duplicates at several tile sizes. (The full 4096-modulus corpus
// parity run lives in the internal bulk tests and the soak suite.)
func TestAttackAPIHybridMatchesPairsModerate(t *testing.T) {
	count := 96
	if testing.Short() {
		count = 32
	}
	moduli, _, err := GenerateWeakCorpus(count, 256, 4, 97)
	if err != nil {
		t.Fatal(err)
	}
	moduli = append(moduli, moduli[3]) // plant a duplicate
	base, err := New(WithWorkers(2)).Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range []int{1, 4, 16, count} {
		rep, err := New(
			WithEngine(EngineHybrid), WithTileSize(tile), WithWorkers(2),
		).Run(context.Background(), moduli)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Broken) != len(base.Broken) {
			t.Fatalf("tile=%d: broke %d keys, pairs engine %d", tile, len(rep.Broken), len(base.Broken))
		}
		for i := range rep.Broken {
			h, p := rep.Broken[i], base.Broken[i]
			if h.Index != p.Index || h.P.Cmp(p.P) != 0 || h.Q.Cmp(p.Q) != 0 || h.FoundWith != p.FoundWith {
				t.Fatalf("tile=%d: broken key %d differs from the pairs engine", tile, i)
			}
		}
		if len(rep.Duplicates) != len(base.Duplicates) {
			t.Fatalf("tile=%d: duplicates %v vs %v", tile, rep.Duplicates, base.Duplicates)
		}
		for i := range rep.Duplicates {
			if rep.Duplicates[i] != base.Duplicates[i] {
				t.Fatalf("tile=%d: duplicate %d differs", tile, i)
			}
		}
	}
}

// TestAttackAPIExecutorFollowsAlgorithm: plain New() runs Approximate on
// the lane kernel (bulk_lanes_batches_total > 0 in WithMetrics), while
// WithAlgorithm(Binary) and the deprecated WithKernel(KernelScalar) pin
// run scalar and emit no lane batches — with identical findings.
func TestAttackAPIExecutorFollowsAlgorithm(t *testing.T) {
	moduli, want := apiCorpus(t)
	laneBatches := func(opts ...Option) (*Report, int64) {
		t.Helper()
		var metrics bytes.Buffer
		rep, err := New(append(opts, WithMetrics(&metrics))...).Run(context.Background(), moduli)
		if err != nil {
			t.Fatal(err)
		}
		checkBroken(t, rep, want)
		for _, line := range strings.Split(metrics.String(), "\n") {
			var n int64
			if _, err := fmt.Sscanf(line, "bulk_lanes_batches_total %d", &n); err == nil {
				return rep, n
			}
		}
		return rep, 0
	}
	base, n := laneBatches()
	if n <= 0 {
		t.Fatalf("default run emitted bulk_lanes_batches_total = %d, want > 0", n)
	}
	for name, opts := range map[string][]Option{
		"binary": {WithAlgorithm(Binary)},
		"scalar": {WithKernel(KernelScalar)},
	} {
		rep, n := laneBatches(opts...)
		if n != 0 {
			t.Errorf("%s: emitted bulk_lanes_batches_total = %d, want none", name, n)
		}
		if len(rep.Broken) != len(base.Broken) || fmt.Sprint(rep.Duplicates) != fmt.Sprint(base.Duplicates) {
			t.Fatalf("%s: findings differ from the default run", name)
		}
		for i, bk := range rep.Broken {
			b := base.Broken[i]
			if bk.Index != b.Index || bk.P.Cmp(b.P) != 0 || bk.Q.Cmp(b.Q) != 0 || bk.D.Cmp(b.D) != 0 || bk.FoundWith != b.FoundWith {
				t.Fatalf("%s: broken key %d differs from the default run", name, i)
			}
		}
	}
}
