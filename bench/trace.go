package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one traced interval. The benchmark records its own spans
// around the calls it makes into the program, and adopts the program's
// own trace spans (the engine "run", tree "phase" and work-unit spans,
// the server's "submit") as their children. Spans stay in memory and
// are written when the run ends.
type span struct {
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Op     int            `json:"op"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // Unix nanoseconds
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// programEvent is the part of the program's JSONL trace event the
// benchmark reads.
type programEvent struct {
	Time   time.Time      `json:"ts"`
	SpanID string         `json:"span"`
	Parent string         `json:"parent"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Start  *time.Time     `json:"start"`
	Attrs  map[string]any `json:"attrs"`
}

// parseProgramTrace reads the completed spans of the program's JSONL
// trace.
func parseProgramTrace(jsonl []byte) ([]programEvent, error) {
	var evs []programEvent
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev programEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("program trace: %w", err)
		}
		if ev.Kind == "span" && ev.Start != nil {
			evs = append(evs, ev)
		}
	}
	return evs, sc.Err()
}

// adoptProgramSpans returns the program's spans evs as spans of op, with
// IDs prefixed to keep ops apart. A span whose parent is not among evs
// hangs under the innermost enclosing "run" span (the batch engine emits
// its tree phases as root spans), or else under parent.
func adoptProgramSpans(evs []programEvent, op int, parent span) []span {
	prefix := fmt.Sprintf("%s/", parent.ID)
	ids := map[string]bool{}
	for _, ev := range evs {
		ids[ev.SpanID] = true
	}
	out := make([]span, 0, len(evs))
	for _, ev := range evs {
		s := span{ID: prefix + ev.SpanID, Op: op, Name: ev.Name,
			Start: ev.Start.UnixNano(), End: ev.Time.UnixNano(), Attrs: ev.Attrs}
		out = append(out, s)
	}
	for i, ev := range evs {
		switch {
		case ev.Parent != "" && ids[ev.Parent]:
			out[i].Parent = prefix + ev.Parent
		default:
			out[i].Parent = parent.ID
			best := int64(-1)
			for _, r := range out {
				if r.Name == "run" && r.ID != out[i].ID && r.Start <= out[i].Start && out[i].End <= r.End &&
					(best < 0 || r.dur() < best) {
					out[i].Parent, best = r.ID, r.dur()
				}
			}
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children, as parallel workers
// produce, are counted once).
func selfTimes(spans []span) map[string]int64 {
	kids := map[string][][2]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// unattributed returns, per op span (the spans named "op"), the share of
// its duration that no child covers.
func unattributed(spans []span) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == "op" && s.dur() > 0 {
			out = append(out, float64(self[s.ID])/float64(s.dur()))
		}
	}
	return out
}

// layerSelfMS sums self time by span name (tree phases by phase name)
// and divides by the number of ops, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	ops := 0
	out := map[string]float64{}
	for _, s := range spans {
		name := s.Name
		if s.Name == "op" {
			ops++
			name = "op (unattributed)"
		}
		if ph, ok := s.Attrs["phase"].(string); ok {
			name = "phase:" + ph
		}
		out[name] += float64(self[s.ID]) / 1e6
	}
	for k := range out {
		out[k] /= float64(max(ops, 1))
	}
	return out
}

// checkSpans reports spans whose parent is missing.
func checkSpans(spans []span) error {
	ids := map[string]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != "" && !ids[s.Parent] {
			return fmt.Errorf("span %s has unknown parent %s", s.ID, s.Parent)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %s ends before it starts", s.ID)
		}
	}
	return nil
}

func writeTrace(path string, spans []span) error {
	if err := checkSpans(spans); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
