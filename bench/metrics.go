package main

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json at the repository root; the smoke test checks that they
// do.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, the same four on every
// workload. An op is one full corpus scan on the scan workloads and one
// open-loop key submission on registry-stream.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // median of repeated set-ups: corpus parse, or server start + seeding
	{"op_p50_ms", "ms", "lower"},    // median op latency (open loop: from the op's due time)
	{"keys_per_s", "1/s", "higher"}, // scans: keys scanned per second; registry: closed-loop submits per second
	{"peak_rss_mb", "MB", "lower"},  // peak resident set of the scanning process or the watch server
}

// perLayer are the traced run's metrics. Apart from the trace and host
// checks, each comes from a probe that runs one layer on operands drawn
// from the workload's own corpus, so every workload reports every layer.
var perLayer = []metricDef{
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
	{"host.calib_ms_p50", "ms", "lower"},
	{"host.calib_iqr_frac", "frac", "lower"},
	{"corpus.parse_ms", "ms", "lower"},
	{"gcd.ns_per_pair", "ns", "lower"},
	{"gcd.iters_per_pair", "count", "lower"},
	{"bulk.pairs_ns_per_pair", "ns", "lower"},
	{"lanes.ns_per_pair", "ns", "lower"},
	{"lanes.occupancy", "frac", "higher"},
	{"engine.busy_frac", "frac", "higher"},
	{"engine.steals", "count", "lower"},
	{"bulk.hybrid_ns_per_pair", "ns", "lower"},
	{"bulk.hybrid_skip_frac", "frac", "higher"},
	{"bulk.hybrid_filter_ms", "ms", "lower"},
	{"bulk.hybrid_descended_pairs", "count", "lower"},
	{"bulk.subprod_cache_hit_frac", "frac", "higher"},
	{"batchgcd.engine_ms", "ms", "lower"},
	{"batchgcd.product_ms", "ms", "lower"},
	{"batchgcd.remainder_ms", "ms", "lower"},
	{"batchgcd.leaf_gcd_ms", "ms", "lower"},
	{"batchgcd.resolve_ms", "ms", "lower"},
	{"attack.interpret_ms_per_broken", "ms", "lower"},
	{"registry.seed_ms", "ms", "lower"},
	{"registry.submit_ms_p50", "ms", "lower"},
	{"registry.spine_mults_per_key", "count", "lower"},
	{"registry.store_bytes_per_key", "B", "lower"},
	{"disk.fsync_us_p50", "us", "lower"},
}
