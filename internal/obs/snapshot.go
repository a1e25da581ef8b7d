package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Snapshot is the plain-data capture of a Registry at one instant. It
// marshals directly to JSON (the expvar-style exposition and the report
// artifact) and renders to the Prometheus text format.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// HistSnapshot is the captured state of one histogram. Buckets are
// per-bucket (non-cumulative) counts; Buckets[len(Bounds)] is the +Inf
// overflow bucket.
type HistSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	// P50/P95/P99 are bucket-interpolated quantile estimates (see
	// Quantile), refreshed whenever the snapshot is taken so the JSON
	// exposition and reports carry them ready-made.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// refreshQuantiles recomputes the cached P50/P95/P99 estimates from the
// current buckets.
func (h *HistSnapshot) refreshQuantiles() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// Mean returns Sum/Count (0 when empty). For integer-valued
// observations such as iteration counts the mean is exact: the sum is
// accumulated as a float64, not reconstructed from buckets.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket, the standard Prometheus
// histogram_quantile estimate. Observations in the +Inf bucket clamp to
// the highest finite bound.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if n == 0 {
			return hi
		}
		frac := (rank - float64(cum-n)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// sortedKeys returns the map's keys in lexical order, for deterministic
// exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promFloat renders a float the way Prometheus expects (no exponent for
// integral values below 1e15, +Inf spelled out).
func promFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHelp emits the `# HELP` line for name when its family has
// registered documentation (engines register from init; ad-hoc test
// metrics have none, and the format makes HELP optional).
func writeHelp(w io.Writer, name string) error {
	if help := HelpFor(name); help != "" {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		return err
	}
	return nil
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered so the
// output is golden-testable. Registered metric families get `# HELP`
// lines; histogram buckets are emitted cumulatively with the trailing
// +Inf bucket, per the format.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if err := writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := writeHelp(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = promFloat(h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
