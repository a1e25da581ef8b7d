package attack

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/mpnat"
)

// TestRunContextKillAndResume drives the full attack pipeline through an
// interrupted, journaled run and a resume, asserting the final report
// matches a clean one key for key.
func TestRunContextKillAndResume(t *testing.T) {
	c := weakCorpus(t, 18, 128, 3, 71)
	clean, err := Run(c.Moduli(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "attack.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	plan := faultinject.NewPlan()
	plan.CancelAtPair = 20
	plan.Cancel = cancel
	opt := DefaultOptions()
	opt.Workers = 3
	opt.Checkpoint = w
	opt.Fault = plan.Hook()
	partial, err := RunContext(ctx, c.Moduli(), opt)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Canceled {
		t.Fatal("run completed before the cancel fired")
	}
	// Partial broken keys must be a subset of the clean report.
	cleanBroken := map[int]bool{}
	for _, bk := range clean.Broken {
		cleanBroken[bk.Index] = true
	}
	for _, bk := range partial.Broken {
		if !cleanBroken[bk.Index] {
			t.Fatalf("partial report broke key %d the clean run did not", bk.Index)
		}
	}

	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := checkpoint.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	ropt := DefaultOptions()
	ropt.Resume = st
	ropt.Checkpoint = w2
	resumed, err := Run(c.Moduli(), ropt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Canceled {
		t.Fatal("resumed run canceled")
	}
	if len(resumed.Broken) != len(clean.Broken) {
		t.Fatalf("resumed broke %d keys, clean %d", len(resumed.Broken), len(clean.Broken))
	}
	for i := range clean.Broken {
		cb, rb := clean.Broken[i], resumed.Broken[i]
		if cb.Index != rb.Index || cb.P.Cmp(rb.P) != 0 || cb.Q.Cmp(rb.Q) != 0 {
			t.Fatalf("broken key %d differs after resume: clean %+v resumed %+v", i, cb, rb)
		}
		if (cb.D == nil) != (rb.D == nil) || (cb.D != nil && cb.D.Cmp(rb.D) != 0) {
			t.Fatalf("broken key %d: private exponent differs after resume", i)
		}
	}
}

// TestBatchModeRejectsCheckpoint: the product-tree engine has no journal
// units and cannot excise inputs, so checkpoint/resume and quarantine
// must be refused explicitly.
func TestBatchModeRejectsCheckpoint(t *testing.T) {
	c := weakCorpus(t, 6, 128, 1, 72)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	opt := DefaultOptions()
	opt.Engine = engine.Batch
	opt.Checkpoint = w
	if _, err := Run(c.Moduli(), opt); err == nil || !strings.Contains(err.Error(), "pairs or hybrid") {
		t.Fatalf("batch + checkpoint: %v", err)
	}
	opt.Checkpoint = nil
	opt.Resume = &checkpoint.State{}
	if _, err := Run(c.Moduli(), opt); err == nil || !strings.Contains(err.Error(), "pairs or hybrid") {
		t.Fatalf("batch + resume: %v", err)
	}
	opt.Resume = nil
	opt.Quarantine = true
	if _, err := Run(c.Moduli(), opt); err == nil || !strings.Contains(err.Error(), "pairs or hybrid") {
		t.Fatalf("batch + quarantine: %v", err)
	}
}

// TestQuarantinePropagates: quarantined inputs and pairs surface in the
// attack report with original corpus indices.
func TestQuarantinePropagates(t *testing.T) {
	c := weakCorpus(t, 10, 128, 2, 73)
	moduli := append([]*mpnat.Nat{mpnat.New(4)}, c.Moduli()...)
	opt := DefaultOptions()
	opt.Quarantine = true
	rep, err := Run(moduli, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Index != 0 || rep.Quarantined[0].Reason != "even" {
		t.Fatalf("Quarantined = %+v", rep.Quarantined)
	}
	// All planted pairs still break, shifted by the one prepended modulus.
	wantBroken := map[int]bool{}
	for _, pp := range c.Planted {
		wantBroken[pp.I+1] = true
		wantBroken[pp.J+1] = true
	}
	if len(rep.Broken) != len(wantBroken) {
		t.Fatalf("broke %d keys, want %d", len(rep.Broken), len(wantBroken))
	}
	for _, bk := range rep.Broken {
		if !wantBroken[bk.Index] {
			t.Fatalf("unexpected broken key %d", bk.Index)
		}
	}
}
