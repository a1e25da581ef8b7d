package batchgcd

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/rsakey"
)

func weakBigs(t *testing.T, count, bits, weak int, seed int64) []*big.Int {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: count, Bits: bits, WeakPairs: weak, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*big.Int, count)
	for i, n := range c.Moduli() {
		out[i] = n.ToBig()
	}
	return out
}

// TestRunContextCancelAtOp: cancellation at a chosen tree operation makes
// the run return context.Canceled — the batch engine has no meaningful
// partial result, unlike the all-pairs engine.
func TestRunContextCancelAtOp(t *testing.T) {
	moduli := weakBigs(t, 16, 128, 2, 61)
	for _, at := range []int64{0, 3, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtOp = at
		plan.Cancel = cancel
		_, err := RunContext(ctx, moduli, Config{Config: engine.Config{Workers: 3, Fault: plan.Hook()}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at op %d: err = %v, want context.Canceled", at, err)
		}
	}
}

// TestRunContextPreCanceled: an already-dead context fails fast on both
// the serial and parallel paths.
func TestRunContextPreCanceled(t *testing.T) {
	moduli := weakBigs(t, 8, 128, 1, 62)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunContext(ctx, moduli, Config{Config: engine.Config{Workers: workers}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestRunRejectsNonRSAModuli: the attack entry points now enforce the
// same zero/even contract as bulk.AllPairs.
func TestRunRejectsNonRSAModuli(t *testing.T) {
	moduli := weakBigs(t, 4, 128, 0, 63)
	even := append(append([]*big.Int{}, moduli...), big.NewInt(4))
	ctx := context.Background()
	if _, err := RunContext(ctx, even, Config{}); err == nil || !strings.Contains(err.Error(), "even") {
		t.Fatalf("even modulus: %v", err)
	}
	zero := append(append([]*big.Int{}, moduli...), new(big.Int))
	if _, err := RunContext(ctx, zero, Config{}); err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Fatalf("zero modulus: %v", err)
	}
	if _, err := RunContext(ctx, append(append([]*big.Int{}, moduli...), nil), Config{}); err == nil {
		t.Fatal("nil modulus accepted")
	}
}

// TestSharedFactorsStillAcceptsEven: the tree primitives keep their wider
// domain — only the RunContext attack path enforces the RSA shape (the
// product tree itself is well-defined for any positive integers, and
// existing callers rely on that).
func TestSharedFactorsStillAcceptsEven(t *testing.T) {
	if _, err := SharedFactorsContext(context.Background(), []*big.Int{big.NewInt(42), big.NewInt(35)}, Config{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextMatchesRun: a run with the fault hook installed but
// nothing planned, on an explicit pool, is identical to the plain
// default-pool run.
func TestRunContextMatchesRun(t *testing.T) {
	moduli := weakBigs(t, 20, 128, 3, 64)
	plain, err := RunContext(context.Background(), moduli, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := RunContext(context.Background(), moduli, Config{Config: engine.Config{Workers: 3, Fault: faultinject.NewPlan().Hook()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(hooked) {
		t.Fatalf("finding counts differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i].Index != hooked[i].Index || plain[i].Factor.Cmp(hooked[i].Factor) != 0 {
			t.Fatalf("finding %d differs", i)
		}
	}
}
