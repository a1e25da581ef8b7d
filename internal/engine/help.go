package engine

import "bulkgcd/internal/obs"

// Metric help strings for the scheduler; the doc-parity test keeps these
// and DESIGN.md section 5c in lockstep.
func init() {
	obs.RegisterHelp("engine_worker_busy_seconds", "per-worker time spent inside work units (one observation per worker per pool run)")
}
