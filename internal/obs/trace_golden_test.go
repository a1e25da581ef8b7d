package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTraceRecordGolden pins the trace wire format byte for byte: a
// scripted emission under a fixed clock must reproduce the checked-in
// JSONL exactly. A point event carries no span keys; spans carry
// sequence IDs ("s1", "s2", ...) and their parent's ID, and so do events
// emitted on a span. Run with -update to regenerate after an
// intentional schema change.
func TestTraceRecordGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.SetClock(func() time.Time {
		at = at.Add(250 * time.Millisecond)
		return at
	})

	tr.Event("quarantine", "unit", 3, "reason", "panic")
	run := tr.StartSpan("run", "engine", "hybrid", "units", 2)
	run.Event("bad_pair", "i", 0, "j", 1)
	cell := run.StartChild("cell", "cell", 0)
	cell.End("pairs", 10)
	run.End("completed", 2)

	got := buf.Bytes()
	golden := filepath.Join("testdata", "trace_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace bytes drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
