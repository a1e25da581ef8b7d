package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressFunc is the engines' progress callback shape: done units
// completed out of total.
type ProgressFunc func(done, total int64)

// SerializeProgress wraps fn so that, no matter how many workers report
// concurrently, fn observes a serialized, strictly monotonic stream:
// calls are mutex-ordered and any update whose done value does not
// exceed the best already delivered is dropped. This is the concurrency
// contract bulk.Config.Progress and batchgcd.Config.Progress promise
// their callers; the engines route every callback through here, so user
// callbacks need no locking of their own.
//
// A nil fn returns nil, keeping the no-callback hot path free of even
// the wrapper call.
func SerializeProgress(fn ProgressFunc) ProgressFunc {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	last := int64(-1)
	return func(done, total int64) {
		mu.Lock()
		defer mu.Unlock()
		if done <= last {
			return
		}
		last = done
		fn(done, total)
	}
}

// ProgressPrinter is a ProgressFunc sink that renders a periodic
// carriage-return status line with completion percentage, current rate
// and ETA — the live view of a long scan. It throttles itself to one
// line per Interval, plus a final line when done reaches total.
//
// Use it directly as an engine Progress callback (the engines serialize
// delivery).
type ProgressPrinter struct {
	w        io.Writer
	unit     string
	interval time.Duration

	mu       sync.Mutex
	start    time.Time
	lastOut  time.Time
	started  bool
	finished bool
	lines    int

	// now is the clock, replaceable in tests.
	now func() time.Time
}

// NewProgressPrinter returns a printer emitting to w at most once per
// interval, labeling counts with unit ("pairs", "tree ops"). An
// interval of 0 prints on every update (used by tests).
func NewProgressPrinter(w io.Writer, unit string, interval time.Duration) *ProgressPrinter {
	return &ProgressPrinter{w: w, unit: unit, interval: interval, now: time.Now}
}

// Update is the ProgressFunc; it renders at most one line per interval.
func (p *ProgressPrinter) Update(done, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	if !p.started {
		p.started = true
		p.start = now
	}
	final := total > 0 && done >= total
	if !final && p.interval > 0 && now.Sub(p.lastOut) < p.interval {
		return
	}
	p.lastOut = now
	p.lines++

	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	eta := "?"
	if rate > 0 && total > done {
		eta = (time.Duration(float64(total-done) / rate * float64(time.Second))).Round(time.Second).String()
	} else if final {
		eta = "0s"
	}
	fmt.Fprintf(p.w, "\rprogress: %d/%d %s (%.1f%%) %.1f %s/s eta %s",
		done, total, p.unit, pct, rate, p.unit, eta)
	if final {
		fmt.Fprintln(p.w)
		p.finished = true
	}
}

// Lines reports how many status lines were emitted (for tests and for
// deciding whether a trailing newline is needed after interruption).
func (p *ProgressPrinter) Lines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lines
}

// Finish terminates the status line after an interrupted run (a
// completed run already printed its newline, so Finish is a no-op then).
func (p *ProgressPrinter) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lines > 0 && !p.finished {
		fmt.Fprintln(p.w)
		p.finished = true
	}
}
