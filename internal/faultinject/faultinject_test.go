package faultinject

import (
	"context"
	"testing"
	"time"
)

// TestNilHookSafe: every On* wrapper must be a no-op on nil hooks and
// nil-field hooks, since that is the production path.
func TestNilHookSafe(t *testing.T) {
	var h *Hook
	h.OnPair(0, 1, 2)
	h.OnBlock(3)
	h.OnOp(4)
	h = &Hook{}
	h.OnPair(0, 1, 2)
	h.OnBlock(3)
	h.OnOp(4)
}

func TestPlanPanicAtPairOrdinal(t *testing.T) {
	p := NewPlan()
	p.PanicAtPair = 2
	h := p.Hook()
	h.OnPair(0, 0, 1)
	h.OnPair(1, 0, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic at the target ordinal")
			}
		}()
		h.OnPair(2, 0, 3)
	}()
	h.OnPair(3, 0, 4) // exact match only: later ordinals pass
}

func TestPlanPanicAtIJ(t *testing.T) {
	p := NewPlan()
	p.PanicAtIJ = &[2]int{5, 9}
	h := p.Hook()
	h.OnPair(0, 5, 8)
	h.OnPair(1, 9, 5) // order matters: only (5,9) triggers
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic at the target pair")
			}
		}()
		h.OnPair(2, 5, 9)
	}()
}

func TestPlanCancelAtPair(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPlan()
	p.CancelAtPair = 3
	p.Cancel = cancel
	h := p.Hook()
	h.OnPair(2, 0, 1)
	if ctx.Err() != nil {
		t.Fatal("canceled early")
	}
	// >= semantics: the trigger holds from the target ordinal onward, so a
	// worker that skips past the exact ordinal still fires it.
	h.OnPair(5, 0, 2)
	if ctx.Err() == nil {
		t.Fatal("not canceled at ordinal past the target")
	}
}

func TestPlanCancelAtOp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPlan()
	p.CancelAtOp = 0
	p.Cancel = cancel
	h := p.Hook()
	h.OnOp(0)
	if ctx.Err() == nil {
		t.Fatal("not canceled at op 0")
	}
}

func TestPlanSlowUnit(t *testing.T) {
	p := NewPlan()
	p.SlowUnit = 1
	p.SlowFor = 10 * time.Millisecond
	h := p.Hook()
	start := time.Now()
	h.OnBlock(0)
	if time.Since(start) >= p.SlowFor {
		t.Fatal("wrong unit slowed")
	}
	start = time.Now()
	h.OnBlock(1)
	if time.Since(start) < p.SlowFor {
		t.Fatal("target unit not slowed")
	}
}

// TestNewPlanDisabled: the fresh plan must not fire anything, including
// at ordinal 0 (the reason the disabled sentinel is -1, not 0).
func TestNewPlanDisabled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPlan()
	p.Cancel = cancel
	h := p.Hook()
	h.OnPair(0, 0, 1)
	h.OnBlock(0)
	h.OnOp(0)
	if ctx.Err() != nil {
		t.Fatal("disabled plan canceled the context")
	}
}
