package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestStatusServer exercises the three endpoints end to end over a real
// listener, the way a `curl :addr/metrics` against a live scan does.
func TestStatusServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bulk_pairs_total").Add(7)
	reg.Histogram("bulk_block_seconds", DurationBuckets()).Observe(0.001)

	s, err := ServeStatus("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body, _ := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if health.Status != "ok" || health.Uptime < 0 {
		t.Errorf("healthz = %+v", health)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, needle := range []string{
		"# TYPE bulk_pairs_total counter",
		"bulk_pairs_total 7",
		"bulk_block_seconds_bucket{le=\"+Inf\"} 1",
		"bulk_block_seconds_count 1",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("metrics missing %q:\n%s", needle, body)
		}
	}

	// Metric updates made while the server runs are visible on the next
	// scrape — the live-scan property.
	reg.Counter("bulk_pairs_total").Add(5)
	_, body, _ = get(t, base+"/metrics")
	if !strings.Contains(body, "bulk_pairs_total 12") {
		t.Errorf("live update not visible:\n%s", body)
	}

	for _, path := range []string{"/metrics?format=json", "/debug/vars"} {
		code, body, hdr = get(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d", path, code)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s content type = %q", path, ct)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if snap.Counters["bulk_pairs_total"] != 12 {
			t.Errorf("%s counter = %d", path, snap.Counters["bulk_pairs_total"])
		}
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline = %d %q", code, body)
	}
}

// TestStatusServerReadyz: a server is ready from the start, with or
// without options, serves the handlers it was given, and turns
// not-ready once Shutdown begins.
func TestStatusServerReadyz(t *testing.T) {
	s, err := ServeStatus("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _, _ := get(t, "http://"+s.Addr()+"/readyz"); code != http.StatusOK {
		t.Fatalf("default server /readyz = %d", code)
	}

	mounted := false
	c, err := ServeStatusOptions("127.0.0.1:0", StatusOptions{
		Registry: NewRegistry(),
		Handlers: map[string]http.Handler{
			"/custom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				mounted = true
				w.WriteHeader(http.StatusNoContent)
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + c.Addr()
	if code, body, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	if code, _, _ := get(t, base+"/custom"); code != http.StatusNoContent || !mounted {
		t.Fatal("custom handler not mounted")
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.handleReadyz(rec, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Shutdown = %d, want 503", rec.Code)
	}
}

// TestStatusServerShutdownDrains: a request in flight when Shutdown is
// called completes instead of being dropped, and the listener refuses
// new connections afterwards.
func TestStatusServerShutdownDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s, err := ServeStatusOptions("127.0.0.1:0", StatusOptions{
		Handlers: map[string]http.Handler{
			"/slow": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				close(entered)
				<-release
				w.Write([]byte("drained"))
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	type result struct {
		code int
		body string
	}
	got := make(chan result, 1)
	go func() {
		code, body, _ := get(t, base+"/slow")
		got <- result{code, body}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	// Shutdown is in progress: the in-flight handler still holds it open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before drain: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.code != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request dropped: %d %q", r.code, r.body)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
