// Package obs is the run-wide observability layer of the repository: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms, safe for concurrent workers), a span-style
// run tracer emitting structured JSONL events, serialized progress
// reporting with rate/ETA, a status HTTP server (/healthz, /metrics,
// pprof) and the machine-readable end-of-run report whose schema
// doubles as the repository's BENCH_*.json format.
//
// obs instruments the production engines: every operation is lock-free
// on the hot path and every type tolerates a nil receiver, so engine
// code can be instrumented unconditionally and pays (almost) nothing
// when metrics are disabled.
//
// Metric naming follows the Prometheus conventions: `<subsystem>_<name>`
// with a `_total` suffix on counters and base-unit (seconds) histograms.
// DESIGN.md section 5c lists every metric the engines export.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. The zero value is ready to use; a
// nil Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (compare-and-swap loop; gauges are updated at
// block granularity, so contention is negligible).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic bucket counts and an
// exact running sum, mirroring the Prometheus histogram model: bucket i
// counts observations v <= Bounds[i], and one implicit +Inf bucket
// catches the rest. A nil Histogram ignores observations.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. It panics on invalid bounds (metric construction is
// programmer error, not runtime input).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing: %v", bounds))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds given nanoseconds, the
// unit all engine latency histograms use.
func (h *Histogram) ObserveDuration(nanos int64) {
	h.Observe(float64(nanos) / 1e9)
}

// snapshot copies the histogram's state. The copy is not atomic across
// buckets — concurrent observations may straddle it — but every
// completed Observe before the call is included, which is all the
// exposition endpoints need.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.refreshQuantiles()
	return s
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default latency scale for the engine
// histograms: 10us .. ~84s in x2.5 steps, wide enough for a 4096-bit
// block on one worker and fine enough to see per-block jitter.
func DurationBuckets() []float64 { return ExpBuckets(10e-6, 2.5, 18) }

// IterationBuckets is the default scale for per-GCD iteration-count
// histograms: Table IV means range from ~360 (512-bit, early-terminate)
// to ~5900 (4096-bit Original), so 16..131072 in x2 steps covers every
// algorithm and size with headroom.
func IterationBuckets() []float64 { return ExpBuckets(16, 2, 14) }

// Registry is a concurrency-safe collection of named metrics. Metrics
// are created on first use and live for the registry's lifetime. A nil
// Registry hands out nil metrics, which ignore updates — engine code
// can therefore instrument unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds and return the
// existing histogram).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures the registry's current state for exposition,
// merging and reports. A nil registry snapshots empty.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
