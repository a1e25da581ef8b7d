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
// phase (tree level, table cell) and block (bulk work unit) — plus
// point events for irregular occurrences (quarantine, panic recovery,
// checkpoint errors).
//
// A Tracer optionally carries an identity — a trace ID shared by every
// process of one distributed scan, and a node name identifying this
// process — and stamps both on every event. Spans get deterministic
// IDs (node-prefixed sequence numbers) and record their parent span,
// so a fleet's coordinator can merge per-worker event streams into one
// causally-ordered trace.
//
// A nil Tracer discards everything, so engine code traces
// unconditionally. Writes are serialized under a mutex; the engines
// trace at block/phase granularity, far off the per-pair hot path.
type Tracer struct {
	mu   sync.Mutex
	w    io.Writer
	sink Sink

	// state guards the clock and identity; kept separate from mu so
	// identity reads never contend with sink emission.
	state sync.Mutex
	// now is the clock, replaceable in tests for deterministic output.
	now     func() time.Time
	traceID string
	node    string
	seq     atomic.Uint64
}

// Sink receives completed trace events in place of a JSONL writer. A
// worker process traces into an in-memory Collector and ships the
// buffered events to the coordinator; the coordinator traces into a
// file as usual. Implementations must be safe for concurrent use.
type Sink interface {
	EmitTrace(TraceEvent)
}

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now}
}

// NewTracerSink returns a tracer delivering events to s instead of a
// writer.
func NewTracerSink(s Sink) *Tracer {
	return &Tracer{sink: s, now: time.Now}
}

// SetIdentity stamps every subsequent event with the given trace ID and
// node name. Span IDs become "<node>:<seq>", unique across a fleet as
// long as node names are. Safe to call before any event is emitted; a
// nil Tracer ignores it.
func (t *Tracer) SetIdentity(traceID, node string) {
	if t == nil {
		return
	}
	t.state.Lock()
	t.traceID = traceID
	t.node = node
	t.state.Unlock()
}

// SetClock replaces the tracer's clock — tests and skew-corrected
// replay use this for deterministic timestamps. A nil Tracer ignores
// it.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.state.Lock()
	t.now = now
	t.state.Unlock()
}

// stamp reads the clock and the identity under one lock.
func (t *Tracer) stamp() (now time.Time, traceID, node string) {
	t.state.Lock()
	defer t.state.Unlock()
	return t.now(), t.traceID, t.node
}

// nextID mints a deterministic span ID: the node name (when set)
// prefixing an atomic sequence number.
func (t *Tracer) nextID(node string) string {
	n := t.seq.Add(1)
	var b [32]byte
	id := append(b[:0], 's')
	if node != "" {
		id = append(append(b[:0], node...), ':')
	}
	return string(strconv.AppendUint(id, n, 10))
}

// TraceEvent is the one-line wire form of every event. Span ends carry
// the start time and duration; point events carry only Time. TraceID,
// SpanID, Parent and Node are empty (and omitted) on tracers without an
// identity, which keeps single-process traces byte-compatible with the
// pre-fleet schema.
type TraceEvent struct {
	// Time is the event (or span-end) timestamp, RFC 3339 with
	// nanoseconds.
	Time time.Time `json:"ts"`
	// TraceID ties every event of one distributed scan together.
	TraceID string `json:"trace,omitempty"`
	// SpanID is set on spans; Parent is the enclosing span's ID (on
	// spans and on events emitted via Span.Event).
	SpanID string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Node names the process that emitted the event.
	Node string `json:"node,omitempty"`
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

// emit delivers ev, plus the attributes in lists: alternating key,
// value lists, later lists overriding earlier ones, as End merges a
// span's end attrs over its start attrs. A sink gets them folded into
// ev.Attrs; a writer gets them encoded straight from the lists, with no
// map.
func (t *Tracer) emit(ev TraceEvent, lists ...[]any) {
	if t == nil {
		return
	}
	if t.sink != nil {
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
		t.sink.EmitTrace(ev)
		return
	}
	// Encode outside the writer lock: span ends arrive from every engine
	// worker at once, and serializing the encoding under the mutex would
	// stall them on each other. appendEvent is a hand-rolled encoder that
	// is byte-identical to encoding/json (the golden and differential
	// tests pin this) at a fraction of the reflection cost, and the
	// span path skips the attrs map as well — span emission sits on the
	// per-cell path, and the BenchmarkHybridTraceOverhead budget holds
	// it under 2% of engine time.
	bp := lineBuf.Get().(*[]byte)
	defer lineBuf.Put(bp)
	var line []byte
	var err error
	if len(lists) == 0 {
		line, err = appendEvent((*bp)[:0], &ev)
	} else {
		line, err = appendEventKV((*bp)[:0], &ev, lists...)
	}
	if err != nil {
		return // tracing is best-effort; a failed event must not fail the run
	}
	*bp = line
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _ = t.w.Write(line)
}

// EmitEvent emits a fully-formed event verbatim — no identity stamping,
// no clock. The fleet coordinator uses it to append workers' shipped
// (and skew-corrected) events to the merged trace.
func (t *Tracer) EmitEvent(ev TraceEvent) {
	t.emit(ev)
}

// Event emits a point event with alternating key, value attributes.
func (t *Tracer) Event(name string, kv ...any) {
	if t == nil {
		return
	}
	now, tid, node := t.stamp()
	t.emit(TraceEvent{Time: now, TraceID: tid, Node: node, Kind: "event", Name: name}, kv)
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

// StartSpanUnder opens a span whose parent is an externally supplied
// span ID — how a worker hangs its cell spans off the coordinator's
// run span without sharing a Tracer.
func (t *Tracer) StartSpanUnder(parent, name string, kv ...any) *Span {
	return t.startSpan(parent, name, kv)
}

func (t *Tracer) startSpan(parent, name string, kv []any) *Span {
	if t == nil {
		return nil
	}
	now, _, node := t.stamp()
	s := &Span{t: t, name: name, id: t.nextID(node), parent: parent, start: now}
	// Copy the attributes: a caller may reuse its slice before End.
	s.kv = append(s.kvBuf[:0], kv...)
	return s
}

// ID returns the span's ID ("" for a nil span), usable as a parent for
// spans started elsewhere — including on another machine.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
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
	now, tid, node := s.t.stamp()
	s.t.emit(TraceEvent{Time: now, TraceID: tid, Node: node, Parent: s.id, Kind: "event", Name: name}, kv)
}

// End completes the span, emitting one line with its start, duration
// and merged attributes.
func (s *Span) End(kv ...any) {
	if s == nil {
		return
	}
	end, tid, node := s.t.stamp()
	start := s.start
	s.t.emit(TraceEvent{
		Time:    end,
		TraceID: tid,
		SpanID:  s.id,
		Parent:  s.parent,
		Node:    node,
		Kind:    "span",
		Name:    s.name,
		Start:   &start,
		DurMS:   float64(end.Sub(s.start).Nanoseconds()) / 1e6,
	}, s.kv, kv)
}
