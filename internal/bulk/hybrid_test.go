package bulk

import (
	"context"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/subprod"
)

// TestHybridMatchesAllPairs: the core hybrid contract — Factors are
// byte-identical to the all-pairs engine at every tile size and worker
// count, with the pair total fully accounted.
func TestHybridMatchesAllPairs(t *testing.T) {
	c := corpus(t, 48, 64, 5, 77)
	ms := c.Moduli()
	ms[7] = ms[3].Clone() // duplicate modulus: Π(tile) ≡ 0 path
	base, err := AllPairs(ms, Config{Algorithm: gcd.Approximate, Early: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Factors) == 0 {
		t.Fatal("corpus with planted pairs produced no factors")
	}
	for _, tile := range []int{1, 4, 32, len(ms)} {
		for _, workers := range []int{1, 8} {
			res, err := Hybrid(ms, Config{
				Config:    engine.Config{Workers: workers},
				Algorithm: gcd.Approximate, Early: true, TileSize: tile,
			})
			if err != nil {
				t.Fatalf("tile=%d workers=%d: %v", tile, workers, err)
			}
			sameFactors(t, res.Factors, base.Factors)
			if res.Pairs != base.Pairs || res.Total != base.Total {
				t.Fatalf("tile=%d workers=%d: pairs %d/%d, all-pairs %d/%d",
					tile, workers, res.Pairs, res.Total, base.Pairs, base.Total)
			}
			if res.Canceled {
				t.Fatalf("tile=%d workers=%d: spuriously canceled", tile, workers)
			}
		}
	}
}

// TestHybridSkipsPairs: on a sparse corpus the filter must actually skip
// work — the whole point of the engine — and the skip counters must
// account exactly for the pairs not descended.
func TestHybridSkipsPairs(t *testing.T) {
	c := corpus(t, 64, 64, 2, 78)
	reg := obs.NewRegistry()
	res, err := Hybrid(c.Moduli(), Config{
		Config:    engine.Config{Metrics: reg},
		Algorithm: gcd.Approximate, Early: true, TileSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	descended := snap.Counters["bulk_hybrid_descended_pairs_total"]
	skipped := snap.Counters["bulk_hybrid_skipped_pairs_total"]
	filters := snap.Counters["bulk_hybrid_filter_gcds_total"]
	diagonal := res.Total - descended - skipped // diagonal cells never filter
	if skipped == 0 {
		t.Fatal("sparse corpus skipped no pairs")
	}
	if diagonal <= 0 {
		t.Fatalf("diagonal pairs = %d (descended %d, skipped %d, total %d)",
			diagonal, descended, skipped, res.Total)
	}
	if filters == 0 || filters >= res.Total {
		t.Fatalf("filter GCDs = %d, want within (0, %d)", filters, res.Total)
	}
	if hits, skips := snap.Counters["bulk_hybrid_tile_hits_total"], snap.Counters["bulk_hybrid_tile_skips_total"]; hits+skips != filters {
		t.Fatalf("hit rows %d + skip rows %d != filter GCDs %d", hits, skips, filters)
	}
	if snap.Counters["bulk_subprod_cache_misses_total"] == 0 {
		t.Fatal("subproduct cache never built anything")
	}
}

// TestHybridSubprodBudget: a tiny budget forces evictions and rebuilds
// but never changes the results.
func TestHybridSubprodBudget(t *testing.T) {
	c := corpus(t, 40, 64, 3, 79)
	base, err := AllPairs(c.Moduli(), Config{Algorithm: gcd.Approximate, Early: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := Hybrid(c.Moduli(), Config{
		Config:    engine.Config{Metrics: reg},
		Algorithm: gcd.Approximate, Early: true, TileSize: 4,
		SubprodBudget: 64, // a couple of 64-bit×4 subproducts at most
	})
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, res.Factors, base.Factors)
	if reg.Snapshot().Counters["bulk_subprod_cache_evictions_total"] == 0 {
		t.Fatal("64-byte budget evicted nothing")
	}
}

// TestHybridQuarantine: quarantine mode reports bad inputs and the
// factor indices still refer to the original slice, matching all-pairs.
func TestHybridQuarantine(t *testing.T) {
	c := corpus(t, 20, 64, 3, 80)
	ms := c.Moduli()
	ms[4] = &mpnat.Nat{}    // zero
	ms[9] = mpnat.New(1000) // even
	cfg := Config{Algorithm: gcd.Approximate, Early: true, Quarantine: true, TileSize: 4}
	base, err := AllPairs(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hybrid(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, res.Factors, base.Factors)
	if len(res.Quarantined) != 2 {
		t.Fatalf("quarantined %v", res.Quarantined)
	}
}

// TestHybridCancelPartial: cancellation at cell boundaries keeps the
// partial result sound (every reported factor is real).
func TestHybridCancelPartial(t *testing.T) {
	c := corpus(t, 24, 64, 3, 81)
	clean, err := Hybrid(c.Moduli(), Config{Algorithm: gcd.Approximate, Early: true, TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range factorKeys(clean.Factors) {
		want[k] = true
	}
	for _, at := range []int64{0, 1, 9, 30} {
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = at
		plan.Cancel = cancel
		res, err := HybridContext(ctx, c.Moduli(), Config{
			Config:    engine.Config{Workers: 3, Fault: plan.Hook()},
			Algorithm: gcd.Approximate, Early: true, TileSize: 4,
		})
		cancel()
		if err != nil {
			t.Fatalf("cancel at %d: %v", at, err)
		}
		if !res.Canceled {
			t.Fatalf("cancel at %d: run completed before the cancel fired", at)
		}
		if res.Pairs > res.Total {
			t.Fatalf("cancel at %d: pairs %d > total %d", at, res.Pairs, res.Total)
		}
		for _, k := range factorKeys(res.Factors) {
			if !want[k] {
				t.Fatalf("cancel at %d: phantom factor %s", at, k)
			}
		}
	}
}

// TestHybridCheckpointResumeEquivalence: interrupt the hybrid run at
// several points, resume from the journal, and require the final result
// to match an uninterrupted run exactly.
func TestHybridCheckpointResumeEquivalence(t *testing.T) {
	c := corpus(t, 24, 64, 4, 82)
	cfg := Config{Algorithm: gcd.Approximate, Early: true, TileSize: 4}
	clean, err := Hybrid(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, killAt := range []int64{0, 3, 25} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
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
		res, err := HybridContext(ctx, c.Moduli(), kcfg)
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
		resumed, err := Hybrid(c.Moduli(), rcfg)
		if err != nil {
			t.Fatalf("resume after kill at %d: %v", killAt, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.Pairs != clean.Pairs {
			t.Fatalf("resumed run covered %d pairs, want %d", resumed.Pairs, clean.Pairs)
		}
		if resumed.ResumedPairs != res.Pairs {
			t.Fatalf("resumed run replayed %d pairs, journal had %d", resumed.ResumedPairs, res.Pairs)
		}
		sameFactors(t, resumed.Factors, clean.Factors)
	}
}

// TestHybridResumeRejectsMismatchedTile: the tile size is part of the
// fingerprint — a journal from tile=4 must not resume a tile=8 run.
func TestHybridResumeRejectsMismatchedTile(t *testing.T) {
	c := corpus(t, 16, 64, 2, 83)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Config: engine.Config{Checkpoint: w}, Algorithm: gcd.Approximate, TileSize: 4}
	if _, err := Hybrid(c.Moduli(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Hybrid(c.Moduli(), Config{
		Config: engine.Config{Resume: st}, Algorithm: gcd.Approximate, TileSize: 8,
	}); err == nil {
		t.Fatal("tile=8 run accepted a tile=4 journal")
	}
	if _, err := Hybrid(c.Moduli(), Config{
		Config: engine.Config{Resume: st}, Algorithm: gcd.Approximate, TileSize: 4,
	}); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
}

// TestHybridPanicQuarantine: a panic injected into a descended pair is
// quarantined exactly like the all-pairs engine, and a panic during the
// filter conservatively descends instead of dropping findings.
func TestHybridPanicQuarantine(t *testing.T) {
	c := corpus(t, 16, 64, 2, 84)
	for _, at := range []int64{0, 5} {
		plan := faultinject.NewPlan()
		plan.PanicAtPair = at
		res, err := Hybrid(c.Moduli(), Config{
			Config:    engine.Config{Workers: 2, Fault: plan.Hook()},
			Algorithm: gcd.Approximate, Early: true, TileSize: 4,
		})
		if err != nil {
			t.Fatalf("panic at %d: %v", at, err)
		}
		if len(res.BadPairs) != 1 {
			t.Fatalf("panic at %d: %d bad pairs", at, len(res.BadPairs))
		}
		if res.Pairs != res.Total {
			t.Fatalf("panic at %d: covered %d pairs, want %d", at, res.Pairs, res.Total)
		}
	}
}

// TestHybridJournalHeader: the header is stable and distinct from the
// all-pairs engine's.
func TestHybridJournalHeader(t *testing.T) {
	c := corpus(t, 8, 64, 1, 85)
	cfg := Config{Algorithm: gcd.Approximate, TileSize: 4}
	h, err := HybridJournalHeader(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Engine != "hybrid" || h.TotalPairs != 8*7/2 || h.Units != 2+1 {
		t.Fatalf("header %+v", h)
	}
	ap, err := JournalHeader(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Fingerprint == h.Fingerprint {
		t.Fatal("hybrid and all-pairs share a fingerprint")
	}
}

// filterFixture returns a fresh pairRunner, a 2048-bit RSA row modulus
// and the product of a 64-key tile of random odd 2048-bit values. The
// row's two 1024-bit primes divide no tile value, so the filter must
// prove the row coprime.
func filterFixture(t *testing.T) (*pairRunner, *mpnat.Nat, *big.Int) {
	t.Helper()
	r := rand.New(rand.NewSource(86))
	p := new(big.Int).Mul(rsakey.GeneratePrime(r, 1024), rsakey.GeneratePrime(r, 1024))
	tile := make([]*big.Int, 64)
	for i := range tile {
		tile[i] = randOddNat(r, 2048).ToBig()
	}
	cfg := Config{Algorithm: gcd.Approximate}
	var seq atomic.Int64
	pr := newPairRunner(&cfg, 2048, nil, &seq, nil)
	return &pr, mpnat.FromBig(p), subprod.Product(tile)
}

// raceEnabled is set by race_test.go when the race detector is on.
// sync.Pool then drops items at random, so math/big's pooled division
// buffers allocate and allocation counts are no longer exact.
var raceEnabled bool

// TestFilterHitAllocs pins the filter's retained scratch: once warm, a
// coprime 2048-bit row against a 64-key tile product divides, converts
// and runs the kernel GCD without allocating.
func TestFilterHitAllocs(t *testing.T) {
	pr, n, prod := filterFixture(t)
	hm := newHybridMetrics(obs.NewRegistry())
	if pr.filterHit(n, prod, hm) {
		t.Fatal("a coprime row against the tile flagged as a hit")
	}
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	if allocs := testing.AllocsPerRun(50, func() { pr.filterHit(n, prod, hm) }); allocs != 0 {
		t.Fatalf("warm filterHit allocated %.1f times per row, want 0", allocs)
	}
}

// TestFilterHitPanicResets: a panic inside the filter descends the row
// and drops the division scratch, and the next row filters normally.
func TestFilterHitPanicResets(t *testing.T) {
	pr, n, prod := filterFixture(t)
	pr.filterHit(n, prod, nil) // warm the scratch
	// A zero row modulus makes QuoRem panic with a division by zero.
	if !pr.filterHit(new(mpnat.Nat), prod, nil) {
		t.Fatal("a panicking filter must descend the row")
	}
	if pr.filter.quo.Bits() != nil || pr.filter.rem.Bits() != nil {
		t.Fatal("panic left the filter scratch in place")
	}
	if pr.filterHit(n, prod, nil) {
		t.Fatal("filter after a recovered panic flagged a coprime row")
	}
}
