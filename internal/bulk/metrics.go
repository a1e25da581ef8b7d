package bulk

import (
	"sync/atomic"
	"time"

	"bulkgcd/internal/gcd"
	"bulkgcd/internal/lanes"
	"bulkgcd/internal/obs"
)

// runMetrics pre-resolves the bulk engine's obs instruments once per
// run, so workers update metrics with plain atomic operations. All
// fields are nil-safe (a nil registry yields nil instruments), letting
// the engine instrument unconditionally:
//
//	bulk_pairs_total                  GCDs computed (fresh pairs only)
//	bulk_blocks_total                 completed work units
//	bulk_factors_total                non-trivial GCDs found
//	bulk_early_exits_total            pairs stopped at the s/2 threshold
//	bulk_bad_pairs_total              pairs quarantined after a panic
//	bulk_quarantined_moduli_total     inputs excluded in quarantine mode
//	bulk_resumed_pairs_total          pairs replayed from a resume journal
//	bulk_block_seconds                per-block compute latency histogram
//	bulk_checkpoint_flush_seconds     per-record journal append latency
//	bulk_workers                      gauge: pool size of the current run
//	bulk_pairs_per_second             gauge: aggregate throughput, set at end
//	bulk_worker_utilization           gauge: busy time / (elapsed * workers)
//	gcd_<alg>_*                       per-algorithm instruments (gcd.Metrics)
type runMetrics struct {
	pairs       *obs.Counter
	blocks      *obs.Counter
	factors     *obs.Counter
	earlyExits  *obs.Counter
	badPairs    *obs.Counter
	quarantined *obs.Counter
	resumed     *obs.Counter

	blockSeconds *obs.Histogram
	ckptSeconds  *obs.Histogram

	workers     *obs.Gauge
	pairsPerSec *obs.Gauge
	utilization *obs.Gauge

	gcd *gcd.Metrics
}

// newRunMetrics resolves the instruments (nil registry gives a nil
// *runMetrics whose methods no-op).
func newRunMetrics(reg *obs.Registry, alg gcd.Algorithm) *runMetrics {
	if reg == nil {
		return nil
	}
	return &runMetrics{
		pairs:        reg.Counter("bulk_pairs_total"),
		blocks:       reg.Counter("bulk_blocks_total"),
		factors:      reg.Counter("bulk_factors_total"),
		earlyExits:   reg.Counter("bulk_early_exits_total"),
		badPairs:     reg.Counter("bulk_bad_pairs_total"),
		quarantined:  reg.Counter("bulk_quarantined_moduli_total"),
		resumed:      reg.Counter("bulk_resumed_pairs_total"),
		blockSeconds: reg.Histogram("bulk_block_seconds", obs.DurationBuckets()),
		ckptSeconds:  reg.Histogram("bulk_checkpoint_flush_seconds", obs.DurationBuckets()),
		workers:      reg.Gauge("bulk_workers"),
		pairsPerSec:  reg.Gauge("bulk_pairs_per_second"),
		utilization:  reg.Gauge("bulk_worker_utilization"),
		gcd:          gcd.NewMetrics(reg, alg),
	}
}

// begin records the run shape known before workers start.
func (m *runMetrics) begin(workers int, quarantined int, resumedPairs int64) {
	if m == nil {
		return
	}
	m.workers.Set(float64(workers))
	m.quarantined.Add(int64(quarantined))
	m.resumed.Add(resumedPairs)
}

// observeBlock folds one completed work unit in.
func (m *runMetrics) observeBlock(blk *blockOut, dur time.Duration) {
	if m == nil {
		return
	}
	m.pairs.Add(blk.pairs)
	m.blocks.Inc()
	m.factors.Add(int64(len(blk.factors)))
	m.badPairs.Add(int64(len(blk.bad)))
	m.blockSeconds.ObserveDuration(int64(dur))
}

// observePair records one GCD computation's statistics: the
// per-algorithm instruments plus the engine-level early-exit counter.
func (m *runMetrics) observePair(st *gcd.Stats) {
	if m == nil {
		return
	}
	m.gcd.Observe(st)
	if st.EarlyTerminated {
		m.earlyExits.Inc()
	}
}

// observeCheckpoint records one journal append's flush latency.
func (m *runMetrics) observeCheckpoint(dur time.Duration) {
	if m == nil {
		return
	}
	m.ckptSeconds.ObserveDuration(int64(dur))
}

// hybridMetrics holds the instruments specific to the tiled
// product-filter engine, alongside the shared runMetrics (for the
// hybrid, bulk_pairs_total counts covered pairs: descended plus
// filter-skipped). Every row of every cell, diagonal cells included, is
// one filter GCD and one hit or skip. All nil-safe:
//
//	bulk_hybrid_filter_gcds_total     filter rows decided (one row GCD each)
//	bulk_hybrid_tile_hits_total       filter rows that descended
//	bulk_hybrid_tile_skips_total      filter rows proven coprime
//	bulk_hybrid_descended_pairs_total pairs computed exactly after a hit
//	bulk_hybrid_skipped_pairs_total   pairs skipped as proven coprime
//	bulk_hybrid_filter_seconds        per-cell filter latency histogram
//	                                  (tree, descent and row GCDs)
//	bulk_hybrid_cell_seconds          per-cell latency histogram
//	bulk_subprod_cache_hits_total     column tile products shared
//	bulk_subprod_cache_misses_total   column tile products built
type hybridMetrics struct {
	filterGCDs *obs.Counter
	tileHits   *obs.Counter
	tileSkips  *obs.Counter
	descended  *obs.Counter
	skipped    *obs.Counter

	filterSeconds *obs.Histogram
	cellSeconds   *obs.Histogram

	columnsShared *obs.Counter
	columnsBuilt  *obs.Counter
}

func newHybridMetrics(reg *obs.Registry) *hybridMetrics {
	if reg == nil {
		return nil
	}
	return &hybridMetrics{
		filterGCDs:    reg.Counter("bulk_hybrid_filter_gcds_total"),
		tileHits:      reg.Counter("bulk_hybrid_tile_hits_total"),
		tileSkips:     reg.Counter("bulk_hybrid_tile_skips_total"),
		descended:     reg.Counter("bulk_hybrid_descended_pairs_total"),
		skipped:       reg.Counter("bulk_hybrid_skipped_pairs_total"),
		filterSeconds: reg.Histogram("bulk_hybrid_filter_seconds", obs.DurationBuckets()),
		cellSeconds:   reg.Histogram("bulk_hybrid_cell_seconds", obs.DurationBuckets()),
		columnsShared: reg.Counter("bulk_subprod_cache_hits_total"),
		columnsBuilt:  reg.Counter("bulk_subprod_cache_misses_total"),
	}
}

// observeFilter records one cell's filter: its rows (one row GCD each)
// and its latency (the row tile's tree, the descent and the row GCDs).
func (m *hybridMetrics) observeFilter(rows int, dur time.Duration) {
	if m == nil {
		return
	}
	m.filterGCDs.Add(int64(rows))
	m.filterSeconds.ObserveDuration(int64(dur))
}

// observeRow records a filter verdict: hit rows descend to width exact
// pairs, skip rows prove width pairs coprime.
func (m *hybridMetrics) observeRow(hit bool, width int64) {
	if m == nil {
		return
	}
	if hit {
		m.tileHits.Inc()
		m.descended.Add(width)
	} else {
		m.tileSkips.Inc()
		m.skipped.Add(width)
	}
}

// observeCell records one completed cell's latency.
func (m *hybridMetrics) observeCell(dur time.Duration) {
	if m == nil {
		return
	}
	m.cellSeconds.ObserveDuration(int64(dur))
}

// observeColumn records one column tile product handed to a cross
// cell: built for it, or shared from the run's table.
func (m *hybridMetrics) observeColumn(built bool) {
	if m == nil {
		return
	}
	if built {
		m.columnsBuilt.Inc()
	} else {
		m.columnsShared.Inc()
	}
}

// lanesMetrics holds the instruments of the lane-batched kernel, fed
// from each worker kernel's telemetry at every batch flush. All
// nil-safe:
//
//	bulk_lanes_batches_total      lockstep batches executed
//	bulk_lanes_supersteps_total   lockstep iterations over the lane matrix
//	bulk_lanes_retirements_total  lanes that finished a pair
//	bulk_lanes_refills_total      retired lanes reloaded mid-batch
//	bulk_lanes_occupancy          gauge: mean fraction of lanes active
type lanesMetrics struct {
	batches     *obs.Counter
	supersteps  *obs.Counter
	retirements *obs.Counter
	refills     *obs.Counter
	occupancy   *obs.Gauge

	// occupancy numerator/denominator accumulated across workers.
	activeLanes atomic.Int64
	laneSlots   atomic.Int64
}

func newLanesMetrics(reg *obs.Registry) *lanesMetrics {
	if reg == nil {
		return nil
	}
	return &lanesMetrics{
		batches:     reg.Counter("bulk_lanes_batches_total"),
		supersteps:  reg.Counter("bulk_lanes_supersteps_total"),
		retirements: reg.Counter("bulk_lanes_retirements_total"),
		refills:     reg.Counter("bulk_lanes_refills_total"),
		occupancy:   reg.Gauge("bulk_lanes_occupancy"),
	}
}

// observeBatch folds the telemetry delta of one flushed batch in and
// refreshes the run-wide mean occupancy gauge.
func (m *lanesMetrics) observeBatch(tel, prev lanes.Telemetry) {
	if m == nil {
		return
	}
	m.batches.Add(tel.Batches - prev.Batches)
	m.supersteps.Add(tel.Supersteps - prev.Supersteps)
	m.retirements.Add(tel.Retirements - prev.Retirements)
	m.refills.Add(tel.Refills - prev.Refills)
	active := m.activeLanes.Add(tel.ActiveLanes - prev.ActiveLanes)
	slots := m.laneSlots.Add(tel.LaneSlots - prev.LaneSlots)
	if slots > 0 {
		m.occupancy.Set(float64(active) / float64(slots))
	}
}

// finish derives the end-of-run gauges: aggregate throughput over the
// fresh pairs, and worker utilization — the fraction of worker-seconds
// actually spent inside blocks (busy covers GCD compute plus journal
// appends; the remainder is scheduling and pool ramp-down).
func (m *runMetrics) finish(res *Result, busy time.Duration) {
	if m == nil {
		return
	}
	if fresh := res.Pairs - res.ResumedPairs; fresh > 0 && res.Elapsed > 0 {
		m.pairsPerSec.Set(float64(fresh) / res.Elapsed.Seconds())
	}
	if res.Elapsed > 0 && res.Workers > 0 {
		m.utilization.Set(busy.Seconds() / (res.Elapsed.Seconds() * float64(res.Workers)))
	}
}
