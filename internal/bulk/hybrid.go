package bulk

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/subprod"
)

// The hybrid engine sits between the paper's all-pairs computation and
// Bernstein's batch GCD: the corpus is cut into tiles of T moduli, and
// each cross-tile cell (A, B) is first interrogated with one subproduct
// GCD per row modulus,
//
//	g_i = gcd(n_i, Π(tile B) mod n_i)
//
// Any factor n_i shares with any n_j in tile B divides both n_i and
// Π(tile B), hence divides Π(tile B) mod n_i, hence divides g_i — so
// g_i = 1 proves n_i coprime to every modulus of tile B and the whole
// row of T pairs is skipped with one division and one GCD. Only rows
// with g_i > 1 descend to the exact per-pair runner, which is why the
// hybrid's findings are byte-identical to the all-pairs engine at every
// tile size: skipped pairs are proven coprime (the all-pairs engine
// would have reported nothing for them) and descended pairs run the
// identical kernel with the identical options. Diagonal cells (A, A)
// always descend — Π(tile A) ≡ 0 mod n_i makes the filter vacuous
// there.
//
// Tile subproducts are big.Int products built once (subprod.Product)
// and cached under Config.SubprodBudget (LRU); the row filter divides
// them with math/big's QuoRem and hands only the one-modulus remainder
// back to mpnat for the paper's kernel GCD. The work unit for
// scheduling, checkpointing and cancellation is one cell, so every
// journaled cell is final and an interrupted run resumes exactly like
// the all-pairs engine.

// hybridCell is one tile-pair work unit, A <= B (tile indices).
type hybridCell struct {
	A, B int
}

// hybridPlan is a hybrid run: the shared plan plus its tile grid.
type hybridPlan struct {
	runPlan
	tile  int          // tile width T
	cells []hybridCell // deterministic row-major order
}

// tileSpan returns the active-index range [lo, hi) of tile t.
func (p *hybridPlan) tileSpan(t int) (lo, hi int) {
	lo = t * p.tile
	hi = lo + p.tile
	if hi > len(p.active) {
		hi = len(p.active)
	}
	return lo, hi
}

func (p *hybridPlan) tiles() int {
	return (len(p.active) + p.tile - 1) / p.tile
}

func planHybrid(moduli []*mpnat.Nat, cfg Config) (*hybridPlan, error) {
	rp, err := validateSet(moduli, cfg.Quarantine)
	if err != nil {
		return nil, err
	}
	t := cfg.TileSize
	if t <= 0 {
		t = 64
	}
	if t > len(rp.active) {
		t = len(rp.active)
	}
	p := &hybridPlan{runPlan: rp, tile: t}
	nt := p.tiles()
	for a := 0; a < nt; a++ {
		for b := a; b < nt; b++ {
			p.cells = append(p.cells, hybridCell{A: a, B: b})
		}
	}
	m := int64(len(p.active))
	p.header = checkpoint.Header{
		V:           checkpoint.Version,
		Engine:      "hybrid",
		Fingerprint: fingerprint("hybrid", cfg, t, moduli),
		Units:       len(p.cells),
		TotalPairs:  m * (m - 1) / 2, // every pair of active moduli is covered
	}
	return p, nil
}

// HybridJournalHeader returns the checkpoint header a Hybrid run over
// these inputs writes (the hybrid counterpart of JournalHeader).
func HybridJournalHeader(moduli []*mpnat.Nat, cfg Config) (checkpoint.Header, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return checkpoint.Header{}, err
	}
	return plan.header, nil
}

// filterScratch is one worker's retained filter state: the row modulus
// staged as a big.Int, the quotient and remainder QuoRem writes, and the
// remainder back in mpnat form for the kernel. A warm scratch filters a
// row without allocating.
type filterScratch struct {
	n, quo, rem big.Int
	r           mpnat.Nat
}

// filterHit runs the subproduct filter for one row modulus: true means
// the row must descend to per-pair GCDs, false proves the whole row
// coprime. A panic inside the filter conservatively descends (the
// per-pair runner then computes — and quarantines — the truth pairwise).
func (p *pairRunner) filterHit(n *mpnat.Nat, prod *big.Int, hm *hybridMetrics) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			hit = true
			p.scratch = gcd.NewScratch(p.maxBits)
			p.filter = filterScratch{}
			p.cfg.Trace.Event("bad_filter", "err", fmt.Sprint(r))
		}
	}()
	start := time.Now()
	defer func() { hm.observeFilter(time.Since(start)) }()
	f := &p.filter
	f.quo.QuoRem(prod, n.ToBigInto(&f.n), &f.rem)
	if f.rem.Sign() == 0 {
		return true // n divides the subproduct: duplicate or fully shared
	}
	r := f.r.SetBig(&f.rem)
	r.RshiftStrip(r) // n is odd, so stripping 2s from r preserves the gcd
	if r.IsOne() {
		return false
	}
	// Full GCD, never early-terminated: a false "coprime" here would
	// silently drop a finding, so the filter takes no shortcuts.
	g, _ := p.scratch.Compute(p.cfg.Algorithm, n, r, gcd.Options{})
	return g == nil || !g.IsOne()
}

// runCell computes one cell into blk: diagonal cells run their
// triangular half pairwise, cross cells filter each row against the
// column tile's subproduct and descend only on hits. Descended pairs go
// through the kernel dispatch, so on the lane kernel a cell's hit rows
// accumulate into bounded lockstep batches, the last drained before the
// cell is sealed for journaling.
func (p *pairRunner) runCell(plan *hybridPlan, c hybridCell, cache *subprod.Cache, hm *hybridMetrics, blk *blockOut) {
	aLo, aHi := plan.tileSpan(c.A)
	if c.A == c.B {
		for k := aLo; k < aHi; k++ {
			for u := k + 1; u < aHi; u++ {
				p.pair(plan.active[k], plan.active[u], blk)
			}
		}
		p.flush(blk)
		return
	}
	bLo, bHi := plan.tileSpan(c.B)
	prod := cache.Get(c.B, func() *big.Int {
		ms := make([]*big.Int, 0, bHi-bLo)
		for u := bLo; u < bHi; u++ {
			ms = append(ms, p.moduli[plan.active[u]].ToBig())
		}
		return subprod.Product(ms)
	})
	for k := aLo; k < aHi; k++ {
		i := plan.active[k]
		if p.filterHit(p.moduli[i], prod, hm) {
			hm.observeRow(true, int64(bHi-bLo))
			for u := bLo; u < bHi; u++ {
				p.pair(i, plan.active[u], blk)
			}
		} else {
			hm.observeRow(false, int64(bHi-bLo))
			blk.pairs += int64(bHi - bLo) // proven coprime, accounted as done
		}
	}
	p.flush(blk)
}

// Hybrid runs the tiled product-filter engine; see HybridContext.
func Hybrid(moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	return HybridContext(context.Background(), moduli, cfg)
}

// HybridContext computes the same Result as AllPairsContext — identical
// Factors, BadPairs, Quarantined and pair totals — using the tiled
// subproduct filter to avoid the vast majority of per-pair GCDs on
// sparse corpora. Result.Stats covers only the descended per-pair GCDs
// (filter divisions and GCDs are reported through the bulk_hybrid_*
// metrics instead). Cancellation, checkpointing and resume follow the
// all-pairs contract with one cell as the work unit.
func HybridContext(ctx context.Context, moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return nil, err
	}
	hm := newHybridMetrics(cfg.Metrics)
	// The tile-subproduct cache is probed from every worker's hot filter
	// loop, so it is sharded to roughly one lock per worker.
	cache := subprod.NewCacheShards(cfg.SubprodBudget, cfg.EffectiveWorkers())
	up := &unitPool{
		cfg: &cfg, moduli: moduli, plan: &plan.runPlan,
		unit: "cell", runAttrs: []any{"tile", plan.tile, "cells", len(plan.cells)},
		spanAttrs: func(i int) []any { return []any{"a", plan.cells[i].A, "b", plan.cells[i].B} },
		run: func(pr *pairRunner, i int, blk *blockOut) {
			pr.runCell(plan, plan.cells[i], cache, hm, blk)
		},
		observeUnit: hm.observeCell,
		finish:      func() { hm.finish(cache.Stats()) },
	}
	return up.execute(ctx)
}
