// Package faultinject provides deterministic fault injection for the GCD
// engines' chaos tests: seeded triggers that panic inside the pair kernel,
// cancel the run's context at an exact point, or slow a chosen work unit.
//
// The engines carry a *Hook in their Config (nil in production) and call
// through the nil-safe On* wrappers, so the non-injected hot path pays a
// single pointer test. Hooks fire on the engine's worker goroutines and
// must therefore be race-free; the Plan-built hooks only read immutable
// fields and invoke an idempotent context.CancelFunc.
package faultinject

import (
	"context"
	"fmt"
	"time"
)

// Hook receives engine events. A nil *Hook disables injection.
type Hook struct {
	// Pair fires before pair attempt k (run-global 0-based ordinal) on
	// modulus indices (i, j). A panic raised here is quarantined by the
	// bulk engine exactly like a panic inside the GCD kernel.
	Pair func(k int64, i, j int)
	// Block fires when a worker claims work unit u (an all-pairs block or
	// a hybrid cell).
	Block func(u int)
	// Op fires before tree operation k of the batch-GCD engine.
	Op func(k int64)
}

// OnPair invokes Pair if set; safe on a nil hook.
func (h *Hook) OnPair(k int64, i, j int) {
	if h != nil && h.Pair != nil {
		h.Pair(k, i, j)
	}
}

// OnBlock invokes Block if set; safe on a nil hook.
func (h *Hook) OnBlock(u int) {
	if h != nil && h.Block != nil {
		h.Block(u)
	}
}

// OnOp invokes Op if set; safe on a nil hook.
func (h *Hook) OnOp(k int64) {
	if h != nil && h.Op != nil {
		h.Op(k)
	}
}

// Plan is a declarative fault schedule compiled into a Hook. The zero
// value of each trigger means disabled; construct with NewPlan so the
// ordinal triggers default to -1 (0 is a valid ordinal).
type Plan struct {
	// PanicAtPair panics at pair ordinal k; -1 disables. Which (i, j) is
	// the k-th attempt depends on worker interleaving, so use PanicAtIJ
	// when the test asserts exact findings.
	PanicAtPair int64
	// PanicAtIJ panics when the given (i, j) pair is attempted; nil
	// disables. This is the value-targeted variant: quarantining a pair
	// with gcd 1 provably leaves the findings unchanged.
	PanicAtIJ *[2]int
	// CancelAtPair invokes Cancel at pair ordinal k; -1 disables.
	CancelAtPair int64
	// CancelAtOp invokes Cancel at batch-GCD tree operation k; -1 disables.
	CancelAtOp int64
	// SlowUnit sleeps SlowFor when work unit SlowUnit is claimed; -1
	// disables.
	SlowUnit int
	SlowFor  time.Duration
	// Cancel is the CancelFunc the CancelAt* triggers invoke.
	Cancel context.CancelFunc
}

// NewPlan returns a Plan with every trigger disabled.
func NewPlan() *Plan {
	return &Plan{PanicAtPair: -1, CancelAtPair: -1, CancelAtOp: -1, SlowUnit: -1}
}

// Hook compiles the plan. The same hook may be shared by many workers.
func (p *Plan) Hook() *Hook {
	return &Hook{
		Pair: func(k int64, i, j int) {
			if p.CancelAtPair >= 0 && k >= p.CancelAtPair && p.Cancel != nil {
				p.Cancel()
			}
			if p.PanicAtPair >= 0 && k == p.PanicAtPair {
				panic(fmt.Sprintf("faultinject: injected panic at pair ordinal %d (%d,%d)", k, i, j))
			}
			if p.PanicAtIJ != nil && p.PanicAtIJ[0] == i && p.PanicAtIJ[1] == j {
				panic(fmt.Sprintf("faultinject: injected panic at pair (%d,%d)", i, j))
			}
		},
		Block: func(u int) {
			if p.SlowUnit >= 0 && u == p.SlowUnit && p.SlowFor > 0 {
				time.Sleep(p.SlowFor)
			}
		},
		Op: func(k int64) {
			if p.CancelAtOp >= 0 && k >= p.CancelAtOp && p.Cancel != nil {
				p.Cancel()
			}
		},
	}
}
