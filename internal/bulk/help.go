package bulk

import "bulkgcd/internal/obs"

// Metric documentation, registered from init so any process linking the
// bulk engine serves `# HELP` lines for its families and the doc-parity
// test can diff this inventory against DESIGN.md.
func init() {
	for name, help := range map[string]string{
		"bulk_pairs_total":                   "pair GCD computations finished",
		"bulk_blocks_total":                  "scan blocks completed",
		"bulk_factors_total":                 "nontrivial factors found by pair scans",
		"bulk_early_exits_total":             "pairs stopped at the s/2 early-exit threshold",
		"bulk_bad_pairs_total":               "pair computations quarantined after a worker panic",
		"bulk_quarantined_moduli_total":      "input moduli excluded before the scan",
		"bulk_resumed_pairs_total":           "pairs restored from a checkpoint instead of recomputed",
		"bulk_block_seconds":                 "wall time per scan block",
		"bulk_checkpoint_flush_seconds":      "wall time per checkpoint journal flush",
		"bulk_workers":                       "worker goroutines configured for the scan",
		"bulk_pairs_per_second":              "recent scan throughput",
		"bulk_worker_utilization":            "fraction of worker time spent computing",
		"bulk_hybrid_filter_gcds_total":      "filter row GCDs, one per row of every hybrid cell",
		"bulk_hybrid_tile_hits_total":        "filter rows whose GCD was nontrivial",
		"bulk_hybrid_tile_skips_total":       "filter rows skipped because the row GCD was 1",
		"bulk_hybrid_descended_pairs_total":  "pairs scanned in hit rows",
		"bulk_hybrid_skipped_pairs_total":    "pairs proven coprime by a skipped row",
		"bulk_hybrid_filter_seconds":         "wall time per cell filter: tile tree, descent and row GCDs",
		"bulk_hybrid_cell_seconds":           "wall time per hybrid cell",
		"bulk_subprod_cache_hits_total":      "subproduct cache lookups served",
		"bulk_subprod_cache_misses_total":    "subproduct cache lookups that computed",
		"bulk_subprod_cache_evictions_total": "subproduct cache entries evicted",
		"bulk_subprod_cache_bytes":           "bytes held by the subproduct cache",
		"bulk_lanes_batches_total":           "lane batches launched by the lockstep kernel",
		"bulk_lanes_supersteps_total":        "lockstep supersteps executed",
		"bulk_lanes_retirements_total":       "lanes retired with a finished GCD",
		"bulk_lanes_refills_total":           "lane refills with fresh pairs",
		"bulk_lanes_occupancy":               "fraction of lanes holding live pairs",
	} {
		obs.RegisterHelp(name, help)
	}
}
