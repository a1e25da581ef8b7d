package bulk

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/subprod"
)

// The hybrid engine sits between the paper's all-pairs computation and
// Bernstein's batch GCD: the corpus is cut into tiles of T moduli, and
// every cell (A, B) of the upper-triangular tile grid decides all of its
// rows at once with one descent over row tile A's product tree
// (internal/subprod). Row n_i of A gets the residue
//
//	cross cell (A < B):  r_i = Π(tile B) mod n_i                (Reduce)
//	diagonal (A = B):    z_i = Π(tile A \ {n_i}) mod n_i        (Cofactors)
//
// and the row GCD g_i = gcd(n_i, r_i) (math/big's, as in batch GCD's
// leaf pass). Any prime n_i shares with a modulus of the row's pairs
// divides both n_i and that product, hence its residue mod n_i, hence
// g_i — so g_i = 1 proves the whole row coprime and it is skipped. A
// cross row covers its T pairs (i, B); a diagonal row covers only the
// pairs (i, u > i), since a sharing pair makes both of its rows hit
// and the lower row takes it. Only rows with g_i > 1 (a residue of 0 —
// a duplicate or a modulus dividing the others — gives g_i = n_i)
// descend to the exact per-pair runner, which is why the hybrid's
// findings are byte-identical to the all-pairs engine at every tile
// size: skipped pairs are proven coprime (the all-pairs engine would
// have reported nothing for them) and descended pairs run the identical
// kernel with the identical options. A modulus equal to 1 gets residue 0
// and g = 1, and no pair containing it has a factor to report.
//
// The row tile's tree is built per cell and dropped with it; each column
// tile product Π(tile B) is built once per run by the first cross cell
// that needs it (subprod.Product) and shared read-only by every later
// one. The work unit for scheduling, checkpointing and cancellation is
// one cell, so every journaled cell is final and an interrupted run
// resumes exactly like the all-pairs engine.

// hybridCell is one tile-pair work unit, A <= B (tile indices).
type hybridCell struct {
	A, B int
}

// hybridPlan is a hybrid run: the shared plan plus its tile grid.
type hybridPlan struct {
	runPlan
	tile  int          // tile width T
	cells []hybridCell // deterministic row-major order
	// bigs holds the active moduli as big.Ints, by active position,
	// converted once per run and shared read-only by every worker: the
	// leaves of the row tiles' trees, the factors of the column products
	// and the row GCDs' operands.
	bigs []*big.Int
	// columns holds Π(tile b) by tile index, each built on first use.
	columns []column
}

// column is one tile's product, built at most once per run.
type column struct {
	once sync.Once
	prod *big.Int
}

// column returns Π(tile b), building it on the run's first request and
// counting the request as a build (a miss) or a share (a hit). Workers
// that ask while it is being built wait for it. A build that panics
// leaves the product unset, and every request for it panics too, so
// each cell that needs it filters conservatively.
func (p *hybridPlan) column(b int, hm *hybridMetrics) *big.Int {
	c := &p.columns[b]
	built := false
	c.once.Do(func() {
		built = true
		lo, hi := p.tileSpan(b)
		c.prod = subprod.Product(p.bigs[lo:hi])
	})
	if c.prod == nil {
		panic(fmt.Sprintf("bulk: no product for column tile %d", b))
	}
	hm.observeColumn(built)
	return c.prod
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
	p := &hybridPlan{runPlan: rp, tile: t, bigs: make([]*big.Int, len(rp.active))}
	for k, i := range rp.active {
		p.bigs[k] = moduli[i].ToBig()
	}
	nt := p.tiles()
	p.columns = make([]column, nt)
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

// cellFilter is one worker's retained row-filter state: the row GCD and
// the current cell's per-row verdicts. A warm worker decides a cell's
// rows without allocating either.
type cellFilter struct {
	g    big.Int
	hits []bool
}

// filterCell decides every row of cell c from one descent over row tile
// A's product tree and returns the verdicts, row k of A at index k (true
// means the row descends to per-pair GCDs). The verdict slice is the
// runner's, valid until the next cell. A panic anywhere in the filter
// conservatively descends every row (the per-pair runner then computes
// — and quarantines — the truth pairwise) and drops the filter state.
func (p *pairRunner) filterCell(plan *hybridPlan, c hybridCell, hm *hybridMetrics) (hits []bool) {
	aLo, aHi := plan.tileSpan(c.A)
	rows := plan.bigs[aLo:aHi]
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			p.filter = cellFilter{hits: make([]bool, len(rows))}
			hits = p.filter.hits
			for k := range hits {
				hits[k] = true
			}
			p.cfg.Trace.Event("bad_filter", "err", fmt.Sprint(r))
		}
		hm.observeFilter(len(rows), time.Since(start))
	}()
	f := &p.filter
	if cap(f.hits) < len(rows) {
		f.hits = make([]bool, len(rows))
	}
	hits = f.hits[:len(rows)]
	// A cell runs on one worker of the run's pool, and its record must
	// cover the whole cell, so the descent runs inline and uncancelable.
	ctx := context.Background()
	tree, err := subprod.Build(ctx, rows, subprod.Options{SkipRoot: true})
	if err != nil {
		panic(err)
	}
	var res []*big.Int
	if c.A == c.B {
		res, err = subprod.Cofactors(ctx, tree, subprod.Options{})
	} else {
		res, err = subprod.Reduce(ctx, tree, plan.column(c.B, hm), subprod.Options{})
	}
	if err != nil {
		panic(err)
	}
	// Full GCDs, never early-terminated: a false "coprime" here would
	// silently drop a finding, so the filter takes no shortcuts.
	for k, r := range res {
		hits[k] = f.g.GCD(nil, nil, r, rows[k]).Cmp(one) != 0
	}
	return hits
}

// one is the shared constant 1 the row GCDs compare against.
var one = big.NewInt(1)

// runCell computes one cell into blk: filterCell decides every row, and
// hit rows descend to their pairs — all of tile B for a cross cell, the
// pairs (k, u > k) for a diagonal one. Descended pairs go through the
// kernel dispatch, so on the lane kernel a cell's hit rows accumulate
// into bounded lockstep batches, the last drained before the cell is
// sealed for journaling.
func (p *pairRunner) runCell(plan *hybridPlan, c hybridCell, hm *hybridMetrics, blk *blockOut) {
	aLo, aHi := plan.tileSpan(c.A)
	bLo, bHi := plan.tileSpan(c.B)
	hits := p.filterCell(plan, c, hm)
	for k := aLo; k < aHi; k++ {
		uLo := bLo
		if c.A == c.B {
			uLo = k + 1
		}
		width := int64(bHi - uLo)
		hm.observeRow(hits[k-aLo], width)
		if !hits[k-aLo] {
			blk.pairs += width // proven coprime, accounted as done
			continue
		}
		i := plan.active[k]
		for u := uLo; u < bHi; u++ {
			p.pair(i, plan.active[u], blk)
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
// (the filter's trees, descents and row GCDs are reported through the
// bulk_hybrid_* metrics instead). Cancellation, checkpointing and resume follow the
// all-pairs contract with one cell as the work unit.
func HybridContext(ctx context.Context, moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return nil, err
	}
	hm := newHybridMetrics(cfg.Metrics)
	up := &unitPool{
		cfg: &cfg, moduli: moduli, plan: &plan.runPlan,
		unit: "cell", runAttrs: []any{"tile", plan.tile, "cells", len(plan.cells)},
		spanAttrs: func(i int) []any { return []any{"a", plan.cells[i].A, "b", plan.cells[i].B} },
		run: func(pr *pairRunner, i int, blk *blockOut) {
			pr.runCell(plan, plan.cells[i], hm, blk)
		},
		observeUnit: hm.observeCell,
	}
	return up.execute(ctx)
}
