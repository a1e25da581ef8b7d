package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func tsSnap(pairs int64, occ float64) *Snapshot {
	reg := NewRegistry()
	reg.Counter("ts_pairs_total").Add(pairs)
	reg.Gauge("ts_occupancy").Set(occ)
	reg.Histogram("ts_cell_seconds", LinearBuckets(1, 1, 4)).Observe(2.5)
	return reg.Snapshot()
}

// TestTimeSeriesRingAndRates: the ring stays bounded, renders
// oldest-first, and converts counter deltas into per-second rates.
func TestTimeSeriesRingAndRates(t *testing.T) {
	ts := NewTimeSeries(3)
	t0 := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		// 10 pairs per 2-second step: a 5/s rate everywhere.
		ts.Record(t0.Add(time.Duration(2*i)*time.Second), tsSnap(int64(10*i), 0.5))
	}
	if ts.Len() != 3 {
		t.Fatalf("ring holds %d points, capacity 3", ts.Len())
	}
	tl := ts.Timeline()
	if tl.Capacity != 3 || len(tl.Points) != 3 {
		t.Fatalf("timeline = %d/%d points", len(tl.Points), tl.Capacity)
	}
	// Oldest surviving point is i=2.
	if got := tl.Points[0].Counters["ts_pairs_total"]; got != 20 {
		t.Fatalf("oldest point counter = %d, want 20", got)
	}
	if tl.Points[0].Rates != nil {
		t.Fatal("first rendered point must not carry rates (no predecessor)")
	}
	for _, p := range tl.Points[1:] {
		if got := p.Rates["ts_pairs_total"]; got != 5 {
			t.Fatalf("rate = %v, want 5/s", got)
		}
	}
	// Histogram digests ride every point.
	h := tl.Points[2].Hists["ts_cell_seconds"]
	if h.Count != 1 || h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Fatalf("hist summary = %+v", h)
	}
}

func TestTimeSeriesNilSafety(t *testing.T) {
	var ts *TimeSeries
	ts.Record(time.Now(), tsSnap(1, 0))
	if ts.Len() != 0 {
		t.Fatal("nil ring has length")
	}
	if tl := ts.Timeline(); len(tl.Points) != 0 {
		t.Fatal("nil ring rendered points")
	}
}

// TestStatusServerTimeline: /timeline serves the recorded ring as JSON
// and /dashboard serves a self-contained HTML page, on every status
// server without extra wiring.
func TestStatusServerTimeline(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ts_pairs_total").Add(42)
	srv, err := ServeStatusOptions("127.0.0.1:0", StatusOptions{
		Registry: reg, TimelineInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	deadline := time.Now().Add(2 * time.Second)
	var tl Timeline
	for {
		resp, err := http.Get(base + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("/timeline content type %q", ct)
		}
		err = json.NewDecoder(resp.Body).Decode(&tl)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline never accumulated points: %d", len(tl.Points))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tl.Capacity != DefaultTimelineCapacity {
		t.Fatalf("capacity = %d", tl.Capacity)
	}
	for _, p := range tl.Points {
		if p.Counters["ts_pairs_total"] != 42 {
			t.Fatalf("point = %+v", p)
		}
	}

	resp, err := http.Get(base + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/dashboard content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"<html", "timeline"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard page missing %q", want)
		}
	}
}

// TestSnapshotQuantilesJSON: histogram snapshots carry interpolated
// p50/p95/p99 in their JSON form — what /metrics?format=json, the
// report and the dashboard all consume.
func TestSnapshotQuantilesJSON(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", LinearBuckets(10, 10, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Histograms map[string]struct {
			P50 float64 `json:"p50"`
			P95 float64 `json:"p95"`
			P99 float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	q := decoded.Histograms["q_seconds"]
	if q.P50 < 40 || q.P50 > 60 || q.P95 < 90 || q.P95 > 100 || q.P99 < q.P95 {
		t.Fatalf("quantiles = %+v", q)
	}
}

// TestPrometheusHelp: registered metric documentation surfaces as
// `# HELP` lines ahead of the `# TYPE` lines; unregistered names stay
// bare (the byte-stability contract of the golden test).
func TestPrometheusHelp(t *testing.T) {
	RegisterHelp("helptest_total", "a documented counter")
	reg := NewRegistry()
	reg.Counter("helptest_total").Add(1)
	reg.Counter("undocumented_total").Add(1)
	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# HELP helptest_total a documented counter\n# TYPE helptest_total counter") {
		t.Fatalf("HELP line missing or misplaced:\n%s", out)
	}
	if strings.Contains(out, "# HELP undocumented_total") {
		t.Fatalf("invented HELP for undocumented metric:\n%s", out)
	}
	if HelpFor("helptest_total") == "" {
		t.Fatal("HelpFor lost the registration")
	}
	names := HelpNames()
	var found bool
	for _, n := range names {
		if n == "helptest_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("HelpNames() = %v", names)
	}
}
