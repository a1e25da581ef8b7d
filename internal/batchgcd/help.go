package batchgcd

import "bulkgcd/internal/obs"

// Metric documentation, registered from init for `# HELP` exposition and
// the doc-parity test.
func init() {
	for name, help := range map[string]string{
		"batchgcd_tree_ops_total":          "product-tree multiplications, descent residues and leaf GCDs",
		"batchgcd_findings_total":          "moduli with a nontrivial shared factor",
		"batchgcd_product_level_seconds":   "wall time per product-tree level",
		"batchgcd_remainder_level_seconds": "wall time per cofactor-descent level",
		"batchgcd_leaf_gcd_seconds":        "wall time of the final leaf GCD pass",
	} {
		obs.RegisterHelp(name, help)
	}
}
