package bulk

import (
	"context"
	"testing"
	"time"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
)

// TestStolenUnitPanicQuarantine is the fault drill for a straggler unit:
// the first unit is slowed, so while its worker sleeps the other worker
// claims the units after it — including the last one, whose pair is
// rigged to panic. The quarantine contract must hold exactly as it does
// on one worker: one BadPair, full pair coverage, findings intact.
func TestStolenUnitPanicQuarantine(t *testing.T) {
	c := corpus(t, 24, 64, 2, 19)
	moduli := c.Moduli()

	// Pair (20, 23) lives in the last all-pairs block under GroupSize 2.
	// It is coprime unless the corpus planted it (seed 19 plants pairs
	// elsewhere), so quarantining it provably leaves the findings
	// unchanged.
	plan := faultinject.NewPlan()
	plan.PanicAtIJ = &[2]int{20, 23}
	plan.SlowUnit = 0
	plan.SlowFor = 50 * time.Millisecond

	reg := obs.NewRegistry()
	res, err := AllPairs(moduli, Config{
		Config:    engine.Config{Workers: 2, Fault: plan.Hook(), Metrics: reg},
		Algorithm: gcd.Approximate, Early: true, GroupSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BadPairs) != 1 || res.BadPairs[0].I != 20 || res.BadPairs[0].J != 23 {
		t.Fatalf("bad pairs = %+v, want exactly (20,23)", res.BadPairs)
	}
	if res.Pairs != res.Total {
		t.Fatalf("covered %d pairs, want %d", res.Pairs, res.Total)
	}
	if len(res.Factors) != 2 {
		t.Fatalf("found %d factors, want the 2 planted weak pairs", len(res.Factors))
	}
	for _, f := range res.Factors {
		if f.I == 20 && f.J == 23 {
			t.Fatal("seed 19 planted a weak pair at (20,23); pick a coprime target pair")
		}
	}
}

// TestStolenUnitCancellation: the same straggler unit, but the fault is
// a cancellation fired from pair 40, which the other worker reaches
// while the straggler's worker still sleeps in the first unit. The run
// must come back Canceled — not hung, not errored — proving the pool's
// cancel path works while one worker is parked inside a unit.
func TestStolenUnitCancellation(t *testing.T) {
	c := corpus(t, 24, 64, 0, 23)
	moduli := c.Moduli()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := faultinject.NewPlan()
	plan.CancelAtPair = 40
	plan.Cancel = cancel
	plan.SlowUnit = 0
	plan.SlowFor = 50 * time.Millisecond

	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = AllPairsContext(ctx, moduli, Config{
			Config:    engine.Config{Workers: 2, Fault: plan.Hook(), Metrics: obs.NewRegistry()},
			Algorithm: gcd.Approximate, Early: true, GroupSize: 2,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not terminate the pool (deadlock)")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("run not marked Canceled")
	}
	if res.Pairs >= res.Total {
		t.Fatalf("covered all %d pairs despite cancellation at pair 40", res.Total)
	}
}
