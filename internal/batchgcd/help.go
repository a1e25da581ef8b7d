package batchgcd

import "bulkgcd/internal/obs"

// Metric documentation, registered from init for `# HELP` exposition and
// the doc-parity test.
func init() {
	for name, help := range map[string]string{
		"batchgcd_tree_ops_total":          "product-tree multiplications, prefix-descent residues and prefix-pass leaf GCDs",
		"batchgcd_findings_total":          "moduli with a nontrivial shared factor",
		"batchgcd_product_level_seconds":   "wall time per product-tree level",
		"batchgcd_remainder_level_seconds": "wall time per level of the prefix descent, the candidate reduce and the suffix pass",
		"batchgcd_leaf_gcd_seconds":        "wall time per leaf GCD of the prefix pass",
	} {
		obs.RegisterHelp(name, help)
	}
}
