package bulk

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"strings"
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
// work — the whole point of the engine — and its counters must account
// for every pair and every row: descended plus skipped pairs cover the
// whole triangle, hit plus skip rows are the filter GCDs, and every row
// of every cell, diagonal cells included, is filtered exactly once.
func TestHybridSkipsPairs(t *testing.T) {
	c := corpus(t, 64, 64, 2, 78)
	cfg := Config{Algorithm: gcd.Approximate, Early: true, TileSize: 8}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := Hybrid(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	descended := snap.Counters["bulk_hybrid_descended_pairs_total"]
	skipped := snap.Counters["bulk_hybrid_skipped_pairs_total"]
	filters := snap.Counters["bulk_hybrid_filter_gcds_total"]
	if skipped == 0 || descended == 0 {
		t.Fatalf("descended %d, skipped %d: the sparse corpus with planted pairs must do both", descended, skipped)
	}
	if descended+skipped != res.Total {
		t.Fatalf("descended %d + skipped %d != total %d", descended, skipped, res.Total)
	}
	if hits, skips := snap.Counters["bulk_hybrid_tile_hits_total"], snap.Counters["bulk_hybrid_tile_skips_total"]; hits+skips != filters {
		t.Fatalf("hit rows %d + skip rows %d != filter GCDs %d", hits, skips, filters)
	}
	plan, err := planHybrid(c.Moduli(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, cell := range plan.cells {
		lo, hi := plan.tileSpan(cell.A)
		rows += int64(hi - lo)
	}
	if rows != 36*8 { // 8 tiles of 8: 36 cells of 8 rows
		t.Fatalf("rows summed over cells = %d, want 288", rows)
	}
	if filters != rows {
		t.Fatalf("filter GCDs = %d, want one per row of every cell, %d", filters, rows)
	}
	if snap.Counters["bulk_subprod_cache_misses_total"] == 0 {
		t.Fatal("no column tile product was built")
	}
}

// TestHybridBuildsEachColumnOnce: a run builds every column tile
// product once and shares it with every later cross cell, whatever the
// pool size, and so does one CellRunner running every cell. 8 tiles of
// 8 make 28 cross cells over the 7 column tiles 1-7: 7 builds and 21
// shares.
func TestHybridBuildsEachColumnOnce(t *testing.T) {
	c := corpus(t, 64, 64, 2, 78)
	ms := c.Moduli()
	base, err := AllPairs(ms, Config{Algorithm: gcd.Approximate, Early: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := func(reg *obs.Registry) (built, shared int64) {
		snap := reg.Snapshot()
		return snap.Counters["bulk_subprod_cache_misses_total"], snap.Counters["bulk_subprod_cache_hits_total"]
	}
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		res, err := Hybrid(ms, Config{
			Config:    engine.Config{Workers: workers, Metrics: reg},
			Algorithm: gcd.Approximate, Early: true, TileSize: 8,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameFactors(t, res.Factors, base.Factors)
		if built, shared := counts(reg); built != 7 || shared != 21 {
			t.Fatalf("workers=%d: %d column products built and %d shared, want 7 and 21", workers, built, shared)
		}
	}

	reg := obs.NewRegistry()
	r, err := NewCellRunner(ms, Config{
		Config:    engine.Config{Metrics: reg},
		Algorithm: gcd.Approximate, Early: true, TileSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := map[int]checkpoint.Record{}
	for u := 0; u < r.Units(); u++ {
		if records[u], err = r.RunUnit(context.Background(), u); err != nil {
			t.Fatalf("cell %d: %v", u, err)
		}
	}
	res, err := r.Assemble(records)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, res.Factors, base.Factors)
	if built, shared := counts(reg); r.Units() != 36 || built != 7 || shared != 21 {
		t.Fatalf("CellRunner over %d cells: %d column products built and %d shared, want 36 cells, 7 and 21", r.Units(), built, shared)
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
	// The filter leaves 12 kernel pairs in this corpus: early, mid and
	// late ordinals among them.
	for _, at := range []int64{0, 1, 6, 11} {
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
	// The filter leaves 16 kernel pairs in this corpus: early, mid and
	// late ordinals among them.
	for _, killAt := range []int64{0, 3, 12} {
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

// intraTileCorpus returns count 128-bit moduli whose only sharing pairs
// lie inside the aligned block [8, 16), one tile at T = 8 and T = len:
// a duplicate pair (8, 9), a modulus 12 = p·q dividing the product of
// 10 = p·r and 11 = q·s (so it divides its tile's product), and 13 = 1.
// Every other modulus is a semiprime of fresh primes.
func intraTileCorpus(t *testing.T, count int, seed int64) []*mpnat.Nat {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	prime := func() *big.Int { return rsakey.GeneratePrime(r, 64) }
	ms := make([]*big.Int, count)
	for i := range ms {
		ms[i] = new(big.Int).Mul(prime(), prime())
	}
	p, q := prime(), prime()
	ms[9] = new(big.Int).Set(ms[8])
	ms[10] = new(big.Int).Mul(p, prime())
	ms[11] = new(big.Int).Mul(q, prime())
	ms[12] = new(big.Int).Mul(p, q)
	ms[13] = big.NewInt(1)
	out := make([]*mpnat.Nat, count)
	for i, m := range ms {
		out[i] = mpnat.FromBig(m)
	}
	return out
}

// TestHybridIntraTileSharing: when every sharing pair lies inside one
// tile, only the diagonal cells' prefix filter can find them. Findings
// match the all-pairs engine at every tile width and pool size, and at
// T = 8 no cross cell row hits.
func TestHybridIntraTileSharing(t *testing.T) {
	ms := intraTileCorpus(t, 24, 87)
	for _, early := range []bool{false, true} {
		base, err := AllPairs(ms, Config{Algorithm: gcd.Approximate, Early: early})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, f := range base.Factors {
			want[fmt.Sprintf("%d,%d", f.I, f.J)] = true
		}
		for _, pair := range []string{"8,9", "10,12", "11,12"} {
			if !want[pair] {
				t.Fatalf("early=%v: all-pairs missed the planted pair %s: %v", early, pair, factorKeys(base.Factors))
			}
		}
		for _, tile := range []int{1, 2, 3, 4, 8, len(ms)} {
			for _, workers := range []int{1, 8} {
				reg := obs.NewRegistry()
				res, err := Hybrid(ms, Config{
					Config:    engine.Config{Workers: workers, Metrics: reg},
					Algorithm: gcd.Approximate, Early: early, TileSize: tile,
				})
				if err != nil {
					t.Fatalf("tile=%d workers=%d: %v", tile, workers, err)
				}
				sameFactors(t, res.Factors, base.Factors)
				if res.Pairs != base.Pairs || res.Total != base.Total {
					t.Fatalf("tile=%d workers=%d: pairs %d/%d, all-pairs %d/%d",
						tile, workers, res.Pairs, res.Total, base.Pairs, base.Total)
				}
				// At T = 8, tile 1 holds every sharing pair. In its
				// diagonal cell only the later row of each sharing pair
				// hits: row 9 (its prefix residue is 0, a duplicate of 8)
				// descends to (8, 9), and row 12 (sharing with 10 and 11)
				// to (8..11, 12), 1+4 pairs. Rows 8, 10 and 11 share with
				// no earlier row, row 13 = 1, and every cross cell row is
				// skipped.
				if tile == 8 {
					snap := reg.Snapshot()
					if h, d := snap.Counters["bulk_hybrid_tile_hits_total"], snap.Counters["bulk_hybrid_descended_pairs_total"]; h != 2 || d != 5 {
						t.Fatalf("early=%v workers=%d: %d hit rows and %d descended pairs, want 2 and 5", early, workers, h, d)
					}
				}
			}
		}
	}
}

// filterFixture returns a hybrid plan over 128 random odd 2048-bit
// values cut into two 64-key tiles, with no column product built yet,
// and a fresh pairRunner: the scan-hybrid tile shape.
func filterFixture(t *testing.T) (*hybridPlan, *pairRunner) {
	t.Helper()
	r := rand.New(rand.NewSource(86))
	ms := make([]*mpnat.Nat, 128)
	for i := range ms {
		ms[i] = randOddNat(r, 2048)
	}
	cfg := &Config{Algorithm: gcd.Approximate, TileSize: 64}
	plan, err := planHybrid(ms, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Int64
	pr := newPairRunner(cfg, plan.maxBits, ms, &seq, nil)
	return plan, &pr
}

// raceEnabled is set by race_test.go when the race detector is on.
// sync.Pool then drops items at random, so math/big's pooled division
// buffers allocate and allocation counts are no longer exact.
var raceEnabled bool

// TestFilterCellAllocs bounds a warm worker's allocations per cell on
// the 64-key 2048-bit tiles of scan-hybrid. The row tile's tree, the
// descent's residues and math/big's GCD and division temporaries
// allocate; the engine's own per-cell state — the verdict slice and the
// row GCD — must not. So the filter may allocate no more than the same
// tree, descent and row GCDs run directly, and the totals are pinned at
// their counts under Go 1.24's math/big. The collector is off while
// counting, so math/big's pooled buffers are never dropped mid-count.
func TestFilterCellAllocs(t *testing.T) {
	plan, pr := filterFixture(t)
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	ctx := context.Background()
	rows := plan.bigs[:64]
	var g big.Int
	rowGCDs := func(res []*big.Int) {
		for k, r := range res {
			g.GCD(nil, nil, r, rows[k])
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		cell   hybridCell
		direct func()
		pin    float64
	}{
		{hybridCell{0, 0}, func() {
			tree, _ := subprod.Build(ctx, rows, subprod.Options{SkipRoot: true})
			zs, _ := subprod.Prefixes(ctx, tree, one, subprod.Options{})
			rowGCDs(zs)
		}, 1096},
		{hybridCell{0, 1}, func() {
			tree, _ := subprod.Build(ctx, rows, subprod.Options{SkipRoot: true})
			rs, _ := subprod.Reduce(ctx, tree, plan.column(1, nil), subprod.Options{})
			rowGCDs(rs)
		}, 1084},
	} {
		tc.direct()
		pr.filterCell(plan, tc.cell, nil) // warm the worker and the column table
		want := testing.AllocsPerRun(10, tc.direct)
		got := testing.AllocsPerRun(10, func() { pr.filterCell(plan, tc.cell, nil) })
		if got > want {
			t.Errorf("cell %v: filter allocated %.0f times, the direct tree, descent and GCDs %.0f", tc.cell, got, want)
		}
		if got > tc.pin {
			t.Errorf("cell %v: filter allocated %.0f times, pinned at %.0f", tc.cell, got, tc.pin)
		}
	}
}

// TestFilterCellPanicResets: a panic inside a cell's filter descends
// every row of that cell, drops the filter state and emits bad_filter,
// on a diagonal and on a cross cell, and the next cell filters normally.
// A zero leaf in the row tile makes the descent divide by zero.
func TestFilterCellPanicResets(t *testing.T) {
	c := corpus(t, 16, 64, 2, 88)
	ms := c.Moduli()
	cfg := Config{Algorithm: gcd.Approximate, TileSize: 4}
	var trace bytes.Buffer
	cfg.Trace = obs.NewTracer(&trace)
	plan, err := planHybrid(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Int64
	pr := newPairRunner(&cfg, plan.maxBits, ms, &seq, nil)
	// The verdicts of a clean runner, for comparison after the panics.
	clean := map[hybridCell][]bool{}
	for _, cell := range plan.cells {
		var blk blockOut
		pr.runCell(plan, cell, nil, &blk)
		clean[cell] = append([]bool(nil), pr.filter.hits[:4]...)
	}
	if pr.filter.g.Bits() == nil {
		t.Fatal("warm filter holds no row GCD")
	}
	good := plan.bigs[1]
	for _, cell := range []hybridCell{{0, 0}, {0, 2}} {
		plan.bigs[1] = new(big.Int)
		reg := obs.NewRegistry()
		hm := newHybridMetrics(reg)
		var blk blockOut
		pr.runCell(plan, cell, hm, &blk)
		plan.bigs[1] = good
		snap := reg.Snapshot()
		pairs := int64(4 * 4) // every pair of a 4×4 cross cell
		if cell.A == cell.B {
			pairs = 4 * 3 / 2
		}
		if hits := snap.Counters["bulk_hybrid_tile_hits_total"]; hits != 4 {
			t.Fatalf("cell %v: %d of 4 rows descended after a filter panic", cell, hits)
		}
		if d := snap.Counters["bulk_hybrid_descended_pairs_total"]; d != pairs || blk.pairs != pairs {
			t.Fatalf("cell %v: %d pairs descended and %d covered, want %d", cell, d, blk.pairs, pairs)
		}
		if f := snap.Counters["bulk_hybrid_filter_gcds_total"]; f != 4 {
			t.Fatalf("cell %v: %d filter rows counted, want 4", cell, f)
		}
		if pr.filter.g.Bits() != nil {
			t.Fatalf("cell %v: panic left the row GCD in place", cell)
		}
		if !strings.Contains(trace.String(), `"bad_filter"`) {
			t.Fatalf("cell %v: no bad_filter event in the trace", cell)
		}
		trace.Reset()
		// The next cell filters normally.
		next := hybridCell{1, 2}
		pr.runCell(plan, next, nil, &blk)
		if got := pr.filter.hits[:4]; fmt.Sprint(got) != fmt.Sprint(clean[next]) {
			t.Fatalf("after a panic in %v: cell %v verdicts %v, clean %v", cell, next, got, clean[next])
		}
	}
}

// TestColumnPanicDescends: a panic while a column tile product is built
// leaves the cell's filter conservative, every row descending, and so
// does every later cell that needs the same column, while the other
// columns filter normally. A nil leaf in column tile 2 makes the
// product's multiplication panic.
func TestColumnPanicDescends(t *testing.T) {
	c := corpus(t, 16, 64, 2, 88)
	ms := c.Moduli()
	cfg := Config{Algorithm: gcd.Approximate, TileSize: 4}
	plan, err := planHybrid(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Int64
	pr := newPairRunner(&cfg, plan.maxBits, ms, &seq, nil)
	good := plan.bigs[9]
	plan.bigs[9] = nil
	for _, cell := range []hybridCell{{0, 2}, {1, 2}} {
		reg := obs.NewRegistry()
		var blk blockOut
		pr.runCell(plan, cell, newHybridMetrics(reg), &blk)
		plan.bigs[9] = good
		snap := reg.Snapshot()
		if hits, d := snap.Counters["bulk_hybrid_tile_hits_total"], snap.Counters["bulk_hybrid_descended_pairs_total"]; hits != 4 || d != 16 || blk.pairs != 16 {
			t.Fatalf("cell %v: %d of 4 rows and %d of 16 pairs descended, %d covered", cell, hits, d, blk.pairs)
		}
		if built, shared := snap.Counters["bulk_subprod_cache_misses_total"], snap.Counters["bulk_subprod_cache_hits_total"]; built+shared != 0 {
			t.Fatalf("cell %v: %d column products counted built and %d shared, want none", cell, built, shared)
		}
	}
	reg := obs.NewRegistry()
	var blk blockOut
	pr.runCell(plan, hybridCell{0, 3}, newHybridMetrics(reg), &blk)
	snap := reg.Snapshot()
	if built, skips := snap.Counters["bulk_subprod_cache_misses_total"], snap.Counters["bulk_hybrid_tile_skips_total"]; built != 1 || skips == 0 {
		t.Fatalf("cell {0 3}: %d column products built and %d rows skipped, want 1 and some", built, skips)
	}
}
