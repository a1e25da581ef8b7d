package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives every metric type from many goroutines;
// under -race this is the data-race proof, and the final values prove
// no update was lost.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hammer_total")
			gauge := reg.Gauge("hammer_gauge")
			h := reg.Histogram("hammer_hist", LinearBuckets(100, 100, 10))
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				h.Observe(float64(i % 1000))
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["hammer_total"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Gauges["hammer_gauge"]; got != goroutines*perG {
		t.Errorf("gauge = %g, want %d", got, goroutines*perG)
	}
	h := snap.Histograms["hammer_hist"]
	if h.Count != goroutines*perG {
		t.Errorf("hist count = %d, want %d", h.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, n := range h.Buckets {
		bucketSum += n
	}
	if bucketSum != h.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	// Sum of 0..999 repeated: exact float arithmetic (all integers).
	wantSum := float64(goroutines) * float64(perG/1000) * (999 * 1000 / 2)
	if h.Sum != wantSum {
		t.Errorf("hist sum = %g, want %g", h.Sum, wantSum)
	}
}

// TestPrometheusGolden pins the exposition format byte for byte.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bulk_pairs_total").Add(42)
	reg.Gauge("bulk_workers").Set(4)
	h := reg.Histogram("block_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE bulk_pairs_total counter
bulk_pairs_total 42
# TYPE bulk_workers gauge
bulk_workers 4
# TYPE block_seconds histogram
block_seconds_bucket{le="0.1"} 1
block_seconds_bucket{le="1"} 3
block_seconds_bucket{le="10"} 3
block_seconds_bucket{le="+Inf"} 4
block_seconds_sum 100.05
block_seconds_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramQuantile checks the interpolated estimate lands in the
// right bucket.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q < 40 || q > 60 {
		t.Errorf("p50 = %g, want ~50", q)
	}
	if q := s.Quantile(0.95); q < 85 || q > 100 {
		t.Errorf("p95 = %g, want ~95", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("p100 = %g, want 100", q)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("mean = %g, want 50.5", got)
	}
}

// TestNilSafety: every operation must be a no-op on nil receivers so
// the engines can instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x", nil).Observe(1)
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var tr *Tracer
	tr.Event("nothing")
	tr.StartSpan("nothing").End("k", "v")
	if fn := SerializeProgress(nil); fn != nil {
		t.Error("SerializeProgress(nil) != nil")
	}
}

// TestSerializeProgressMonotonic: concurrent out-of-order delivery in,
// strictly increasing serialized delivery out.
func TestSerializeProgressMonotonic(t *testing.T) {
	var mu sync.Mutex
	var seen []int64
	fn := SerializeProgress(func(done, total int64) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				fn(i*8+int64(g), 8000)
			}
		}(g)
	}
	wg.Wait()
	if len(seen) == 0 {
		t.Fatal("no deliveries")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("delivery not monotonic: %d after %d", seen[i], seen[i-1])
		}
	}
	if last := seen[len(seen)-1]; last != 7999 {
		t.Errorf("final done = %d, want 7999", last)
	}
}

// TestTracerJSONL checks the wire format with a deterministic clock.
func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tick := 0
	tr.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 100 * time.Millisecond)
	}

	tr.Event("quarantine", "index", 3, "reason", "even")
	sp := tr.StartSpan("block", "block", 7)
	sp.End("pairs", 2016)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev TraceEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "event" || ev.Name != "quarantine" || ev.Attrs["reason"] != "even" {
		t.Errorf("bad event: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "span" || ev.Name != "block" {
		t.Errorf("bad span: %+v", ev)
	}
	if ev.DurMS != 100 {
		t.Errorf("span duration = %v ms, want 100", ev.DurMS)
	}
	if ev.Attrs["block"] != float64(7) || ev.Attrs["pairs"] != float64(2016) {
		t.Errorf("span attrs = %v", ev.Attrs)
	}
}

// TestProgressPrinterETA: the status line carries count, percentage,
// rate and a finite ETA, and the final update appends a newline.
func TestProgressPrinterETA(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf, "pairs", 0)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	times := []time.Time{base, base.Add(10 * time.Second), base.Add(20 * time.Second)}
	i := 0
	p.now = func() time.Time { v := times[i]; i++; return v }

	p.Update(0, 1000)
	p.Update(500, 1000) // 50 pairs/s over 10s -> eta 10s
	p.Update(1000, 1000)

	out := buf.String()
	if !strings.Contains(out, "500/1000 pairs (50.0%) 50.0 pairs/s eta 10s") {
		t.Errorf("mid-run line wrong:\n%q", out)
	}
	if !strings.Contains(out, "1000/1000 pairs (100.0%)") || !strings.HasSuffix(out, "\n") {
		t.Errorf("final line wrong:\n%q", out)
	}
	if p.Lines() != 3 {
		t.Errorf("lines = %d, want 3", p.Lines())
	}
}

// TestProgressPrinterThrottle: with a long interval only the first and
// final updates print.
func TestProgressPrinterThrottle(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf, "ops", time.Hour)
	for i := int64(1); i <= 100; i++ {
		p.Update(i, 100)
	}
	if n := p.Lines(); n != 2 {
		t.Errorf("lines = %d, want 2 (first + final):\n%q", n, buf.String())
	}
}

// TestReportRoundTrip: the artifact schema survives JSON round trips
// with metrics attached.
func TestReportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bulk_pairs_total").Add(120)
	rep := NewReport("rsafactor")
	rep.Params["alg"] = "approximate"
	rep.Summary["pairs"] = int64(120)
	rep.Finish(reg)

	path := t.TempDir() + "/report.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Report
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Tool != "rsafactor" {
		t.Errorf("header = %q %q", back.Schema, back.Tool)
	}
	if back.Metrics == nil || back.Metrics.Counters["bulk_pairs_total"] != 120 {
		t.Errorf("metrics lost: %+v", back.Metrics)
	}
	if back.Host.GOARCH == "" || back.ElapsedSeconds < 0 {
		t.Errorf("host/timing missing: %+v", back.Host)
	}
}
