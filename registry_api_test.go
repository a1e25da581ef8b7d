package bulkgcd

import (
	"math/big"
	"strings"
	"testing"
)

// TestOpenRegistry exercises the public streaming surface end to end:
// options, verdict mapping, the findings channel, durability across
// reopen, and the metrics snapshot on Close.
func TestOpenRegistry(t *testing.T) {
	dir := t.TempDir()
	var metrics strings.Builder
	r, err := OpenRegistry(dir,
		WithWorkers(2),
		WithMetrics(&metrics),
	)
	if err != nil {
		t.Fatal(err)
	}

	moduli, planted, err := GenerateWeakCorpus(24, 96, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := r.SubmitBatch(moduli)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[int]bool{}
	for _, v := range vs {
		if v.Kind == VerdictMalformed {
			t.Fatalf("generated modulus rejected: %+v", v)
		}
		if v.Kind == VerdictShared {
			shared[v.Index] = true
			for _, p := range v.Partners {
				shared[p.Index] = true
			}
		}
	}
	for _, pp := range planted {
		if !shared[pp.I] || !shared[pp.J] {
			t.Fatalf("planted pair (%d,%d) not detected; shared=%v", pp.I, pp.J, shared)
		}
	}

	// Duplicate and malformed verdicts map through.
	if v, _ := r.Submit(moduli[0]); v.Kind != VerdictDuplicate || v.Kind.String() != "duplicate" {
		t.Fatalf("duplicate verdict: %+v", v)
	}
	if v, _ := r.Submit(big.NewInt(42)); v.Kind != VerdictMalformed || v.Index != -1 {
		t.Fatalf("malformed verdict: %+v", v)
	}

	broken := r.Broken()
	if len(broken) < 2*len(planted) {
		t.Fatalf("Broken() = %d entries, want >= %d", len(broken), 2*len(planted))
	}
	for _, b := range broken {
		if b.N == nil || b.G == nil {
			t.Fatalf("broken modulus %+v missing values", b)
		}
		if b.Index < len(moduli) && b.N.Cmp(moduli[b.Index]) != 0 {
			t.Fatalf("broken modulus %d: N mismatch", b.Index)
		}
	}
	st := r.Stats()
	if st.Keys != len(moduli)+1 || st.Submissions != int64(len(moduli)+2) {
		t.Fatalf("stats: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Findings were streamed (channel closed by Close).
	n := 0
	for f := range r.Findings() {
		if f.Factor == nil || f.Index <= f.Partner {
			t.Fatalf("finding %+v malformed", f)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no findings streamed")
	}
	if !strings.Contains(metrics.String(), "registry_submissions_total") {
		t.Fatalf("metrics snapshot missing registry counters:\n%s", metrics.String())
	}

	// Reopen: identical broken set, no recomputation.
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Broken(); len(got) != len(broken) {
		t.Fatalf("reopened Broken() = %d, want %d", len(got), len(broken))
	}
	if st := r2.Stats(); st.Replayed != 0 {
		t.Fatalf("clean reopen replayed %d", st.Replayed)
	}
}
