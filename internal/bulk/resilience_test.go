package bulk

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// factorKeys renders a factor list in a canonical comparable form.
func factorKeys(fs []Factor) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%d,%d,%s", f.I, f.J, f.P.Hex())
	}
	return out
}

func sameFactors(t *testing.T, got, want []Factor) {
	t.Helper()
	g, w := factorKeys(got), factorKeys(want)
	if len(g) != len(w) {
		t.Fatalf("factor count %d, want %d\ngot  %v\nwant %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("factor %d = %s, want %s", i, g[i], w[i])
		}
	}
}

// TestAllPairsCancelPartial cancels runs at several points and checks the
// partial-result contract: Canceled set, the pair count bounded by the
// total, and every reported factor also found by a clean run.
func TestAllPairsCancelPartial(t *testing.T) {
	c := corpus(t, 20, 64, 3, 41)
	clean, err := AllPairs(c.Moduli(), Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range factorKeys(clean.Factors) {
		want[k] = true
	}
	for _, at := range []int64{0, 1, 17, 50, 120} {
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = at
		plan.Cancel = cancel
		res, err := AllPairsContext(ctx, c.Moduli(), Config{
			Config:    engine.Config{Workers: 3, Fault: plan.Hook()},
			Algorithm: gcd.Approximate, Early: true, GroupSize: 4,
		})
		cancel()
		if err != nil {
			t.Fatalf("cancel at %d: %v", at, err)
		}
		if !res.Canceled {
			t.Fatalf("cancel at %d: Canceled not set", at)
		}
		if res.Pairs > clean.Pairs {
			t.Fatalf("cancel at %d: %d pairs exceeds total %d", at, res.Pairs, clean.Pairs)
		}
		if res.Total != clean.Pairs {
			t.Fatalf("cancel at %d: Total = %d, want %d", at, res.Total, clean.Pairs)
		}
		for _, k := range factorKeys(res.Factors) {
			if !want[k] {
				t.Fatalf("cancel at %d: spurious factor %s", at, k)
			}
		}
	}
}

// TestAllPairsCheckpointResumeEquivalence is the PR's core acceptance
// property at the engine level: a run killed at an arbitrary point and
// resumed from its journal produces findings identical to an
// uninterrupted run, over several kill points and worker counts.
func TestAllPairsCheckpointResumeEquivalence(t *testing.T) {
	c := corpus(t, 22, 64, 4, 42)
	cfg := Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4}
	clean, err := AllPairs(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, killAt := range []int64{0, 3, 40, 90} {
		path := filepath.Join(t.TempDir(), "run.jsonl")

		// Interrupted first run.
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = killAt
		plan.Cancel = cancel
		kcfg := cfg
		kcfg.Workers = 3
		kcfg.Checkpoint = w
		kcfg.Fault = plan.Hook()
		res, err := AllPairsContext(ctx, c.Moduli(), kcfg)
		cancel()
		if err != nil {
			t.Fatalf("kill at %d: %v", killAt, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !res.Canceled {
			t.Fatalf("kill at %d: run completed before the cancel fired", killAt)
		}

		// Resume until done (a resumed run may be canceled again only if
		// another fault is injected; here it must finish in one go).
		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Pairs(); got != res.Pairs {
			t.Fatalf("kill at %d: journal has %d pairs, result reported %d", killAt, got, res.Pairs)
		}
		w2, err := checkpoint.OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Workers = 2
		rcfg.Resume = st
		rcfg.Checkpoint = w2
		resumed, err := AllPairs(c.Moduli(), rcfg)
		if err != nil {
			t.Fatalf("resume after kill at %d: %v", killAt, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.Canceled {
			t.Fatalf("resumed run canceled")
		}
		if resumed.Pairs != clean.Pairs {
			t.Fatalf("resumed run computed %d pairs, want %d", resumed.Pairs, clean.Pairs)
		}
		if resumed.ResumedPairs != res.Pairs {
			t.Fatalf("resumed run replayed %d pairs, journal had %d", resumed.ResumedPairs, res.Pairs)
		}
		sameFactors(t, resumed.Factors, clean.Factors)
	}
}

// TestResumeFingerprintMismatch: a journal from a different corpus or
// configuration must be rejected, not silently merged.
func TestResumeFingerprintMismatch(t *testing.T) {
	c1 := corpus(t, 8, 64, 1, 44)
	c2 := corpus(t, 8, 64, 1, 45)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Config: engine.Config{Checkpoint: w}, Algorithm: gcd.Approximate, Early: true}
	if _, err := AllPairs(c1.Moduli(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Different corpus.
	if _, err := AllPairs(c2.Moduli(), Config{Config: engine.Config{Resume: st}, Algorithm: gcd.Approximate, Early: true}); err == nil {
		t.Error("journal accepted for a different corpus")
	}
	// Same corpus, different algorithm.
	if _, err := AllPairs(c1.Moduli(), Config{Config: engine.Config{Resume: st}, Algorithm: gcd.Binary, Early: true}); err == nil {
		t.Error("journal accepted for a different algorithm")
	}
	// Same corpus, same config: accepted and fully replayed.
	res, err := AllPairs(c1.Moduli(), Config{Config: engine.Config{Resume: st}, Algorithm: gcd.Approximate, Early: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedPairs != res.Pairs || res.Pairs != 8*7/2 {
		t.Fatalf("full replay: resumed %d of %d pairs", res.ResumedPairs, res.Pairs)
	}
}

// TestHybridResumeOldQuarantineRecord: a hybrid journal written by the
// retired multi-process mode may hold a bad_cell record, a cell that was
// given up instead of completed. Resuming such a journal must recompute
// that cell, so the findings equal an uninterrupted run's even when the
// cell holds a planted pair.
func TestHybridResumeOldQuarantineRecord(t *testing.T) {
	ms := corpus(t, 24, 64, 3, 46).Moduli()
	cfg := Config{Algorithm: gcd.Approximate, Early: true, TileSize: 4}
	clean, err := Hybrid(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := cfg
	jcfg.Checkpoint = w
	if _, err := Hybrid(ms, jcfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the record of the first cell that holds a finding with the
	// quarantine record the old coordinator journaled for it.
	lines := strings.SplitAfter(string(data), "\n")
	unit := -1
	for i, line := range lines {
		var rec checkpoint.Record
		if i == 0 || json.Unmarshal([]byte(line), &rec) != nil || len(rec.Factors) == 0 {
			continue
		}
		unit = rec.Unit
		lines[i] = fmt.Sprintf(`{"unit":%d,"pairs":0,"bad_cell":"failed on 3 workers"}`+"\n", unit)
		break
	}
	if unit < 0 {
		t.Fatal("no cell holds a planted pair")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = st
	res, err := Hybrid(ms, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, res.Factors, clean.Factors)
	if res.Pairs != clean.Pairs || res.ResumedPairs >= res.Pairs {
		t.Fatalf("resumed run covered %d pairs (%d replayed), want %d with cell %d recomputed",
			res.Pairs, res.ResumedPairs, clean.Pairs, unit)
	}
}

// TestJournalHeaderPinned pins the exact journal headers — fingerprint
// hex included — of the pairs and hybrid engines for one fixed corpus
// and configuration, so a refactor of the fingerprint or the unit
// decomposition cannot silently orphan existing -checkpoint journals.
func TestJournalHeaderPinned(t *testing.T) {
	moduli := []*mpnat.Nat{mpnat.New(15), mpnat.New(21), mpnat.New(35), mpnat.New(77)}
	cfg := Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 2, TileSize: 2}
	quarantined := []*mpnat.Nat{mpnat.New(15), &mpnat.Nat{}, mpnat.New(4), mpnat.New(77)}
	qcfg := cfg
	qcfg.Quarantine = true
	cases := []struct {
		name   string
		header func() (checkpoint.Header, error)
		want   checkpoint.Header
	}{
		{"pairs", func() (checkpoint.Header, error) { return JournalHeader(moduli, cfg) }, checkpoint.Header{
			V: 1, Engine: "allpairs", Units: 3, TotalPairs: 6,
			Fingerprint: "64120a978c464600ca96124e95a0529b8804a3652abb4f4bbd1654dc1b0c017b",
		}},
		{"hybrid", func() (checkpoint.Header, error) { return HybridJournalHeader(moduli, cfg) }, checkpoint.Header{
			V: 1, Engine: "hybrid", Units: 3, TotalPairs: 6,
			Fingerprint: "1a4857cc430e73a8ce315e7776362a068c5b0022efccd8b901527e20625e78d5",
		}},
		{"pairs/quarantine", func() (checkpoint.Header, error) { return JournalHeader(quarantined, qcfg) }, checkpoint.Header{
			V: 1, Engine: "allpairs", Units: 1, TotalPairs: 1,
			Fingerprint: "a0cc4e8a898cae45ab6c65ab87ba2821a1608b2023122292efebd238408eedbf",
		}},
	}
	for _, tc := range cases {
		got, err := tc.header()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: header = %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestAllPairsPanicQuarantine: a panic injected at a value-targeted pair
// with gcd 1 is quarantined as a BadPair; the run completes and the
// findings are exactly those of a clean run.
func TestAllPairsPanicQuarantine(t *testing.T) {
	c := corpus(t, 16, 64, 2, 46)
	clean, err := AllPairs(c.Moduli(), Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a pair no planted factor touches, so quarantining it cannot
	// change the findings.
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
	res, err := AllPairs(c.Moduli(), Config{
		Config:    engine.Config{Workers: 3, Fault: plan.Hook()},
		Algorithm: gcd.Approximate, Early: true, GroupSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled {
		t.Fatal("panic quarantine canceled the run")
	}
	if res.Pairs != clean.Pairs {
		t.Fatalf("run with quarantined pair computed %d pairs, want %d", res.Pairs, clean.Pairs)
	}
	if len(res.BadPairs) != 1 {
		t.Fatalf("BadPairs = %+v, want exactly one", res.BadPairs)
	}
	bp := res.BadPairs[0]
	if bp.I != target[0] || bp.J != target[1] {
		t.Fatalf("quarantined (%d,%d), injected at %v", bp.I, bp.J, target)
	}
	if bp.Err == "" {
		t.Fatal("BadPair.Err empty")
	}
	sameFactors(t, res.Factors, clean.Factors)
}

// TestOrdinalPanicDoesNotCrash: the ordinal-targeted panic (whichever
// pair lands on it) must be absorbed without crashing, for every engine
// shape.
func TestOrdinalPanicDoesNotCrash(t *testing.T) {
	c := corpus(t, 12, 64, 2, 47)
	for _, at := range []int64{0, 5, 30} {
		plan := faultinject.NewPlan()
		plan.PanicAtPair = at
		res, err := AllPairs(c.Moduli(), Config{
			Config:    engine.Config{Workers: 2, Fault: plan.Hook()},
			Algorithm: gcd.Approximate, Early: true, GroupSize: 3,
		})
		if err != nil {
			t.Fatalf("panic at ordinal %d: %v", at, err)
		}
		if res.Pairs != 12*11/2 {
			t.Fatalf("panic at ordinal %d: %d pairs", at, res.Pairs)
		}
		if len(res.BadPairs) != 1 {
			t.Fatalf("panic at ordinal %d: BadPairs = %+v", at, res.BadPairs)
		}
	}
}

// TestInputQuarantine: zero and even moduli are excised with per-index
// reports while the remaining corpus is scanned normally, and indices in
// the findings refer to the original corpus.
func TestInputQuarantine(t *testing.T) {
	c := corpus(t, 14, 64, 2, 48)
	moduli := c.Moduli()
	zero := &mpnat.Nat{}
	even := mpnat.New(4)
	bad := []*mpnat.Nat{zero, even}
	// Corrupt positions 0 and 5.
	corrupted := make([]*mpnat.Nat, 0, len(moduli)+2)
	corrupted = append(corrupted, bad[0])
	corrupted = append(corrupted, moduli[:4]...)
	corrupted = append(corrupted, bad[1])
	corrupted = append(corrupted, moduli[4:]...)

	// Without quarantine the corrupted corpus must fail.
	if _, err := AllPairs(corrupted, Config{Algorithm: gcd.Approximate}); err == nil {
		t.Fatal("corrupted corpus accepted without quarantine")
	}

	res, err := AllPairs(corrupted, Config{Algorithm: gcd.Approximate, Early: true, Quarantine: true, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 2 {
		t.Fatalf("Quarantined = %+v, want 2 entries", res.Quarantined)
	}
	if res.Quarantined[0].Index != 0 || res.Quarantined[0].Reason != "zero" {
		t.Fatalf("Quarantined[0] = %+v", res.Quarantined[0])
	}
	if res.Quarantined[1].Index != 5 || res.Quarantined[1].Reason != "even" {
		t.Fatalf("Quarantined[1] = %+v", res.Quarantined[1])
	}
	if want := int64(14 * 13 / 2); res.Pairs != want {
		t.Fatalf("computed %d pairs over the active set, want %d", res.Pairs, want)
	}
	// Map clean-run factors into the corrupted corpus's index space.
	remap := func(i int) int {
		if i < 4 {
			return i + 1 // after the zero at 0
		}
		return i + 2 // after zero and the even at 5
	}
	clean, err := AllPairs(moduli, Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Factor, len(clean.Factors))
	for i, f := range clean.Factors {
		want[i] = Factor{I: remap(f.I), J: remap(f.J), P: f.P}
	}
	sortFactors(want)
	sameFactors(t, res.Factors, want)
}

// TestCancelBeforeStart: an already-canceled context yields an empty
// canceled result, not an error or a hang.
func TestCancelBeforeStart(t *testing.T) {
	c := corpus(t, 8, 64, 1, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AllPairsContext(ctx, c.Moduli(), Config{Algorithm: gcd.Approximate})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Pairs != 0 || len(res.Factors) != 0 {
		t.Fatalf("pre-canceled run: %+v", res)
	}
}
