package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits structured run events as JSON Lines: one object per
// line, safe for concurrent use, append-friendly and greppable. The
// engines emit three span kinds — run (one per engine invocation),
// phase (one batch-GCD tree pass or leaf pass) and block (bulk work
// unit) — plus
// point events for irregular occurrences (quarantine, panic recovery,
// checkpoint errors). Spans get deterministic IDs ("s" and a sequence
// number) and record their parent span.
//
// A nil Tracer discards everything, so engine code traces
// unconditionally. Writes are serialized under a mutex; the engines
// trace at block/phase granularity, far off the per-pair hot path.
type Tracer struct {
	mu sync.Mutex
	w  io.Writer

	// state guards the clock; kept separate from mu so clock reads never
	// contend with writes.
	state sync.Mutex
	// now is the clock, replaceable in tests for deterministic output.
	now func() time.Time
	seq atomic.Uint64
}

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now}
}

// SetClock replaces the tracer's clock, so tests get deterministic
// timestamps. A nil Tracer ignores it.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.state.Lock()
	t.now = now
	t.state.Unlock()
}

// stamp reads the clock.
func (t *Tracer) stamp() time.Time {
	t.state.Lock()
	defer t.state.Unlock()
	return t.now()
}

// nextID mints a deterministic span ID: "s" and an atomic sequence
// number.
func (t *Tracer) nextID() string {
	var b [24]byte
	return string(strconv.AppendUint(append(b[:0], 's'), t.seq.Add(1), 10))
}

// TraceEvent is the one-line wire form of every event. Span ends carry
// the start time and duration; point events carry only Time.
type TraceEvent struct {
	// Time is the event (or span-end) timestamp, RFC 3339 with
	// nanoseconds.
	Time time.Time `json:"ts"`
	// SpanID is set on spans; Parent is the enclosing span's ID (on
	// spans and on events emitted via Span.Event).
	SpanID string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Kind is "event" for point events, "span" for completed spans.
	Kind string `json:"kind"`
	// Name identifies the event: "run", "phase", "block", ...
	Name string `json:"name"`
	// Start and DurMS are set on spans only.
	Start *time.Time `json:"start,omitempty"`
	DurMS float64    `json:"dur_ms,omitempty"`
	// Attrs carries the event's key/value payload.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// attrMap folds alternating key, value pairs into a map (odd trailing
// keys get nil). Kept tiny on purpose: trace attrs are emitted at block
// granularity.
func attrMap(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		m[k] = kv[i+1]
	}
	return m
}

// lineBuf recycles the writer path's encode buffers; a cell span's line
// is about 250 bytes.
var lineBuf = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// emit writes ev, plus the attributes in lists: alternating key, value
// lists, later lists overriding earlier ones, as End merges a span's end
// attrs over its start attrs. They are encoded straight from the lists,
// with no map.
func (t *Tracer) emit(ev TraceEvent, lists ...[]any) {
	if t == nil {
		return
	}
	// Encode outside the writer lock: span ends arrive from every engine
	// worker at once, and serializing the encoding under the mutex would
	// stall them on each other. appendEventKV is a hand-rolled encoder
	// that is byte-identical to encoding/json (the golden and
	// differential tests pin this) at a fraction of the reflection cost,
	// and it skips the attrs map as well — span emission sits on the
	// per-cell path, and the BenchmarkHybridTraceOverhead budget holds
	// it under 2% of engine time.
	bp := lineBuf.Get().(*[]byte)
	defer lineBuf.Put(bp)
	line, err := appendEventKV((*bp)[:0], &ev, lists...)
	if err != nil {
		return // tracing is best-effort; a failed event must not fail the run
	}
	*bp = line
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _ = t.w.Write(line)
}

// Event emits a point event with alternating key, value attributes.
func (t *Tracer) Event(name string, kv ...any) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{Time: t.stamp(), Kind: "event", Name: name}, kv)
}

// Span is an open span; End completes and emits it. A nil Span (from a
// nil Tracer) is inert.
type Span struct {
	t      *Tracer
	name   string
	id     string
	parent string
	start  time.Time
	kv     []any  // start attributes, alternating key, value
	kvBuf  [8]any // kv's storage up to four attributes, in the span's allocation
}

// StartSpan opens a root span. Attributes given here are merged with
// those given to End (End wins on duplicate keys).
func (t *Tracer) StartSpan(name string, kv ...any) *Span {
	return t.startSpan("", name, kv)
}

func (t *Tracer) startSpan(parent, name string, kv []any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, parent: parent, start: t.stamp(), id: t.nextID()}
	// Copy the attributes: a caller may reuse its slice before End.
	s.kv = append(s.kvBuf[:0], kv...)
	return s
}

// StartChild opens a child span of s on the same tracer.
func (s *Span) StartChild(name string, kv ...any) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s.id, name, kv)
}

// Event emits a point event parented to this span.
func (s *Span) Event(name string, kv ...any) {
	if s == nil {
		return
	}
	s.t.emit(TraceEvent{Time: s.t.stamp(), Parent: s.id, Kind: "event", Name: name}, kv)
}

// End completes the span, emitting one line with its start, duration
// and merged attributes.
func (s *Span) End(kv ...any) {
	if s == nil {
		return
	}
	end := s.t.stamp()
	start := s.start
	s.t.emit(TraceEvent{
		Time:   end,
		SpanID: s.id,
		Parent: s.parent,
		Kind:   "span",
		Name:   s.name,
		Start:  &start,
		DurMS:  float64(end.Sub(s.start).Nanoseconds()) / 1e6,
	}, s.kv, kv)
}
