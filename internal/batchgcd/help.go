package batchgcd

import "bulkgcd/internal/obs"

// Metric documentation, registered from init for `# HELP` exposition and
// the doc-parity test.
func init() {
	for name, help := range map[string]string{
		"batchgcd_tree_ops_total":         "product-tree multiplications, prefix-descent residues and prefix-pass leaf GCDs",
		"batchgcd_findings_total":         "moduli with a nontrivial shared factor",
		"batchgcd_product_pass_seconds":   "wall time per product-tree construction over the moduli",
		"batchgcd_remainder_pass_seconds": "wall time per tree construction and descent of the candidate and suffix passes, and per prefix descent",
		"batchgcd_leaf_gcd_seconds":       "wall time per leaf GCD of the prefix pass",
	} {
		obs.RegisterHelp(name, help)
	}
}
