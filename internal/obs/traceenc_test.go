package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAppendEventMatchesEncodingJSON differentially pins the hand-rolled
// trace encoder to encoding/json: for every event shape the engines
// produce — plus adversarial strings and floats — appendEvent's bytes must equal json.Encoder's. This is what lets the
// fast path replace the reflective marshal without a schema break.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	start := ts.Add(-90 * time.Millisecond)
	events := []TraceEvent{
		{Time: ts, Kind: "event", Name: "quarantine", Attrs: map[string]any{"unit": 3, "reason": "panic"}},
		{Time: ts, SpanID: "s1",
			Kind: "span", Name: "run", Start: &start, DurMS: 90.125,
			Attrs: map[string]any{"units": int64(12), "done": true, "frac": 0.25}},
		{Time: ts, SpanID: "s2", Parent: "s1",
			Kind: "span", Name: "cell", Start: &start, DurMS: 1e-7,
			Attrs: map[string]any{"pairs": uint64(1 << 40), "nil": nil}},
		// Strings exercising every escape class, HTML escaping included.
		{Time: ts, Kind: "event", Name: `quote " slash \ <tag> & amp`,
			Attrs: map[string]any{"ctl": "a\nb\rc\td\x00e\x1f", "uni": "caf\u00e9 \u2028sep\u2029",
				"bad": string([]byte{0x80, 0xff}) + "ok"}},
		// Float corner cases on both dur_ms and attr values.
		{Time: ts, Kind: "event", Name: "floats", DurMS: 1e21,
			Attrs: map[string]any{"tiny": 1e-9, "neg": -1e-9, "big": 1e22, "zero": 0.0,
				"int": 42.0, "max": math.MaxFloat64}},
		// Attr value of a type the fast path does not special-case.
		{Time: ts, Kind: "event", Name: "fallback",
			Attrs: map[string]any{"list": []int{1, 2, 3}, "m": map[string]string{"k": "<v>"}}},
		// Fractional-second trimming: .25, .0 (dropped dot), full nanos.
		{Time: time.Date(2026, 1, 2, 3, 4, 5, 250000000, time.UTC), Kind: "event", Name: "t1"},
		{Time: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), Kind: "event", Name: "t2"},
		{Time: ts.In(time.FixedZone("JST", 9*3600)), Kind: "event", Name: "t3"},
	}
	for _, ev := range events {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: reference marshal: %v", ev.Name, err)
		}
		want = append(want, '\n')
		got, err := appendEvent(nil, &ev)
		if err != nil {
			t.Fatalf("%s: appendEvent: %v", ev.Name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", ev.Name, got, want)
		}
	}
}

// TestAppendEventRejectsWhatJSONRejects: the fast path must drop the
// same events the reflective marshal would error on, not emit corrupt
// lines for them.
func TestAppendEventRejectsWhatJSONRejects(t *testing.T) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	bad := []TraceEvent{
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Kind: "event", Name: "year"},
		{Time: ts, Kind: "event", Name: "nan", DurMS: math.NaN()},
		{Time: ts, Kind: "event", Name: "inf", Attrs: map[string]any{"v": math.Inf(1)}},
		{Time: ts, Kind: "event", Name: "chan", Attrs: map[string]any{"v": make(chan int)}},
	}
	for _, ev := range bad {
		if _, jerr := json.Marshal(ev); jerr == nil {
			t.Fatalf("%s: expected reference marshal to fail", ev.Name)
		}
		if _, err := appendEvent(nil, &ev); err == nil {
			t.Errorf("%s: appendEvent accepted what json.Marshal rejects", ev.Name)
		}
	}
}

// TestTracerEmitUsesFastPath: an end-to-end write through the Tracer
// still matches a json.Encoder stream for a representative span.
func TestTracerEmitUsesFastPath(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	at := time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)
	tr.SetClock(func() time.Time { at = at.Add(time.Second); return at })
	s := tr.StartSpan("cell", "cell", 7, "html", "<a&b>")
	s.End("pairs", int64(100))

	var ref strings.Builder
	enc := json.NewEncoder(&ref)
	startAt := time.Date(2026, 3, 4, 5, 6, 8, 0, time.UTC)
	if err := enc.Encode(TraceEvent{
		Time: startAt.Add(time.Second), SpanID: "s1",
		Kind: "span", Name: "cell", Start: &startAt, DurMS: 1000,
		Attrs: map[string]any{"cell": 7, "html": "<a&b>", "pairs": int64(100)},
	}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != ref.String() {
		t.Fatalf("tracer output diverges from json.Encoder:\n got %s\nwant %s", sb.String(), ref.String())
	}
}

// TestAppendEventKVMatchesMap: the span path's map-free encoder writes
// the bytes appendEvent writes for the map attrMap and Span.End build
// from the same lists — keys sorted, a repeated key keeping its last
// value (within a list and across the start and end lists), non-string
// keys and an odd trailing key dropped, and no attrs member at all when
// nothing is left.
func TestAppendEventKVMatchesMap(t *testing.T) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	start := ts.Add(-time.Millisecond)
	for _, lists := range [][][]any{
		nil,
		{{}},
		{{"cell", 3, "worker", 0, "a", 1, "b", 2}, {"pairs", int64(256), "factors", 0, "bad_pairs", 0}},
		{{"b", 1, "a", 2, "b", 3}, {"a", "over", "c", nil}},
		{{7, "int key", "k", "v", "odd"}, {true, 1}},
		{{"z", 1, "y", 2, "x", 3, "w", 4, "v", 5, "u", 6, "t", 7, "s", 8, "r", 9},
			{"q", 10, "p", 11, "o", 12, "n", 13, "m", 14, "l", 15, "k", 16, "j", 17, "z", 18}},
		{{"html", "<a&b>", "f", 0.5, "list", []int{1, 2}}},
	} {
		ev := TraceEvent{Time: ts, SpanID: "s2", Parent: "s1", Kind: "span", Name: "cell", Start: &start, DurMS: 1}
		got, err := appendEventKV(nil, &ev, lists...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range lists {
			if len(kv) == 0 {
				continue
			}
			if ev.Attrs == nil {
				ev.Attrs = attrMap(kv)
				continue
			}
			for k, v := range attrMap(kv) {
				ev.Attrs[k] = v
			}
		}
		want, err := appendEvent(nil, &ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("lists %v:\n got %s\nwant %s", lists, got, want)
		}
	}
}

// TestSpanKeepsStartAttrs: a span copies its start attributes, so a
// caller reusing its slice before End does not change what is emitted.
func TestSpanKeepsStartAttrs(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.SetClock(func() time.Time { return time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC) })
	kv := []any{"cell", 1}
	s := tr.StartSpan("cell", kv...)
	kv[1] = 2
	s.End()
	if !strings.Contains(sb.String(), `"attrs":{"cell":1}`) {
		t.Fatalf("span emitted %s, want its start attrs as given", sb.String())
	}
}

// TestAppendTimeMatchesEncodingJSON: appendTime's cached second and
// fraction formatting equal json.Marshal of the time, for runs of
// timestamps inside one second (the cache hit path) with every
// fraction length, across second and zone changes, before 1970 and at
// the year range's ends, and for the same instant in two zones back to
// back.
func TestAppendTimeMatchesEncodingJSON(t *testing.T) {
	jst := time.FixedZone("JST", 9*3600)
	odd := time.FixedZone("ODD", -(3*3600 + 30*60))
	base := time.Date(2026, 10, 17, 10, 5, 54, 0, time.UTC)
	var times []time.Time
	for _, ns := range []int{0, 1, 10, 120, 123456789, 500000000, 999999999, 100000000, 7} {
		times = append(times, base.Add(time.Duration(ns)))
	}
	for _, ts := range []time.Time{
		base.Add(time.Second), base.Add(1500 * time.Millisecond), base.In(jst), base.Add(5).In(jst),
		base.In(odd), base, time.Date(1969, 12, 31, 23, 59, 59, 999, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 1, jst), time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Now(), time.Now(),
	} {
		times = append(times, ts)
	}
	for _, ts := range times {
		want, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendTime(nil, ts)
		if err != nil {
			t.Fatalf("%v: %v", ts, err)
		}
		if string(got) != string(want) {
			t.Errorf("%v: got %s, want %s", ts, got, want)
		}
	}
}

// TestTracerConcurrentSpans: spans ended from many goroutines at once
// share the pooled line buffers and the cached second; every line must
// still come out whole and carry its own span's attributes.
func TestTracerConcurrentSpans(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)
	const goroutines, spans = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				s := tr.StartSpan("cell", "g", g, "i", i)
				s.End("sum", g*spans+i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*spans {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*spans)
	}
	for _, line := range lines {
		var ev struct {
			Attrs struct{ G, I, Sum int } `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if a := ev.Attrs; a.Sum != a.G*spans+a.I {
			t.Fatalf("line %q mixes spans' attributes", line)
		}
	}
}
