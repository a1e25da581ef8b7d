package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// StatusServer serves the live view of a running scan:
//
//	GET /healthz              liveness: {"status":"ok","uptime_seconds":...}
//	GET /readyz               readiness: 200 while serving, 503 once drain
//	                          begins (see Shutdown)
//	GET /metrics              Prometheus text exposition of the registry
//	GET /metrics?format=json  the same snapshot as expvar-style JSON
//	GET /timeline             bounded snapshot ring with rates (JSON)
//	GET /dashboard            dependency-free HTML view polling /timeline
//	GET /debug/vars           alias for the JSON snapshot
//	GET /debug/pprof/...      the standard net/http/pprof handlers
//
// It binds its own mux (never http.DefaultServeMux, so importing obs
// does not leak handlers into embedding programs) and listens
// immediately on construction, so ":0" yields a usable Addr for tests.
type StatusServer struct {
	ln       net.Listener
	srv      *http.Server
	start    time.Time
	done     chan struct{}
	draining atomic.Bool
	reg      *Registry
	timeline *TimeSeries
	tlStop   chan struct{}
	tlOnce   sync.Once
	tlDone   chan struct{}
}

// StatusOptions extends ServeStatus for servers that are more than a
// metrics endpoint: rsafactor watch mounts its submission handlers.
type StatusOptions struct {
	// Registry backs /metrics and /debug/vars; nil serves empty
	// snapshots.
	Registry *Registry
	// Handlers are additional routes mounted on the server's mux; the
	// patterns must not collide with the built-in endpoints.
	Handlers map[string]http.Handler
	// Timeline backs /timeline and /dashboard; nil gets a fresh ring of
	// DefaultTimelineCapacity. The server records one snapshot per
	// TimelineInterval (default one second) until Close/Shutdown.
	Timeline *TimeSeries
	// TimelineInterval is the snapshot cadence; <= 0 means one second.
	TimelineInterval time.Duration
}

// ServeStatus starts a status server for reg on addr (host:port; ":0"
// picks a free port), immediately ready. The server runs until Close.
func ServeStatus(addr string, reg *Registry) (*StatusServer, error) {
	return ServeStatusOptions(addr, StatusOptions{Registry: reg})
}

// ServeStatusOptions starts a status server configured by opts.
func ServeStatusOptions(addr string, opts StatusOptions) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: status listener: %w", err)
	}
	s := &StatusServer{
		ln:    ln,
		start: time.Now(),
		done:  make(chan struct{}),
		reg:   opts.Registry,
	}
	s.timeline = opts.Timeline
	if s.timeline == nil {
		s.timeline = NewTimeSeries(0)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/dashboard", s.handleDashboard)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range opts.Handlers {
		mux.Handle(pattern, h)
	}
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on Close/Shutdown
	}()

	// Timeline recorder: one snapshot immediately (so /timeline is never
	// empty) then one per interval until the server stops.
	interval := opts.TimelineInterval
	if interval <= 0 {
		interval = time.Second
	}
	s.tlStop = make(chan struct{})
	s.tlDone = make(chan struct{})
	s.timeline.Record(time.Now(), s.reg.Snapshot())
	go func() {
		defer close(s.tlDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.tlStop:
				return
			case now := <-t.C:
				s.timeline.Record(now, s.reg.Snapshot())
			}
		}
	}()
	return s, nil
}

// Timeline returns the server's snapshot ring (e.g. to fold its final
// state into a report).
func (s *StatusServer) Timeline() *TimeSeries { return s.timeline }

// stopTimeline halts the recorder goroutine; safe to call repeatedly.
func (s *StatusServer) stopTimeline() {
	s.tlOnce.Do(func() { close(s.tlStop) })
	<-s.tlDone
}

// Addr returns the bound address (resolving ":0").
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately (in-flight requests are dropped)
// and waits for the serve loop to exit.
func (s *StatusServer) Close() error {
	s.stopTimeline()
	err := s.srv.Close()
	<-s.done
	return err
}

// Shutdown marks the server not-ready, so load balancers stop sending
// requests before the listener goes away, and drains gracefully: the
// listener closes, in-flight requests run to completion, and new
// connections are refused. It returns ctx.Err() if the drain outlives
// ctx (remaining requests are then abandoned, as with Close).
func (s *StatusServer) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopTimeline()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *StatusServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *StatusServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ready"})
}

func (s *StatusServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}

func (s *StatusServer) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.reg.Snapshot())
}

func (s *StatusServer) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.timeline.Timeline())
}

func (s *StatusServer) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}
