package registry

import (
	"fmt"
	"strings"
	"testing"
)

// TestDifferentialWorkerCounts streams the same shuffled weak corpus
// into registries configured with pool widths 1, 2, 7 and 16 and
// requires the folded broken set to be hex-for-hex identical to the
// batch oracle and across every width. The width sizes the pool of each
// chunk's product tree and prefix descent and of node rebuilds, so this
// is the determinism gate for those paths; a hit's forest descent runs
// serially at every width.
func TestDifferentialWorkerCounts(t *testing.T) {
	moduli := weakModuli(t, 40, 96, 5, 11)
	oracle := oracleBroken(t, moduli)

	var base string
	for _, w := range []int{1, 2, 7, 16} {
		r := openT(t, t.TempDir(), Config{Workers: w})
		for pos := 0; pos < len(moduli); pos += 7 {
			end := pos + 7
			if end > len(moduli) {
				end = len(moduli)
			}
			if _, err := r.SubmitBatch(moduli[pos:end]); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
		}
		diffBroken(t, r, oracle)

		var sb strings.Builder
		for _, bk := range r.Broken() {
			fmt.Fprintf(&sb, "%d:%s\n", bk.Index, bk.G.Text(16))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = sb.String()
			continue
		}
		if sb.String() != base {
			t.Fatalf("workers=%d: broken set differs from workers=1:\n%s\nvs\n%s", w, sb.String(), base)
		}
	}
}
