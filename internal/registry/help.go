package registry

import "bulkgcd/internal/obs"

// Metric help strings; the doc-parity test keeps these and DESIGN.md
// section 5c in lockstep.
func init() {
	obs.RegisterHelp("registry_submissions_total", "keys submitted to the registry, including malformed rejections")
	obs.RegisterHelp("registry_spine_mults_total", "product-tree spine merge multiplications (amortized one per accepted key)")
	obs.RegisterHelp("registry_replayed_total", "verdicts recomputed during Open because the journal did not durably cover them")
	obs.RegisterHelp("registry_node_loads_total", "product-tree node values reloaded from validated node files")
	obs.RegisterHelp("registry_node_builds_total", "product-tree node values rebuilt from their leaves")
	obs.RegisterHelp("registry_keys", "accepted keys in the registry corpus")
	obs.RegisterHelp("registry_fold_seconds", "wall-clock duration of one chunk check's history fold (the forest's product mod the chunk's product); one sample per one-key submit, per batch chunk and per replayed chunk")
	obs.RegisterHelp("registry_submit_seconds", "wall-clock duration of one submitted key (check + append + journal); the first key of each batch chunk also carries the chunk's fold and prefix descent, and the batch's last key the batch's corpus and journal fsyncs when it accepted a key")
}
