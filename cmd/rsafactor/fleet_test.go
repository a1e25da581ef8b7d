package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkgcd/internal/checkpoint"
)

// syncBuffer is a bytes.Buffer safe to read while another goroutine (the
// in-process coordinator) is writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestExitCodes pins the documented exit-code contract: orchestration
// scripts branch on these numbers, so they are part of the CLI surface.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 8, 128, 1, 3)

	usage := [][]string{
		{"-in", cp, "-alg", "nope"},
		{"-in", cp, "-serve", ":0", "-worker", "http://x"},
		{"-in", cp, "-spill", "s.jsonl"},
		{"-in", cp, "-worker", "http://x", "-checkpoint", "j.jsonl"},
		{"-in", cp, "-worker", "http://x", "-truth", "t.txt"},
		{"-in", cp, "-serve", ":0", "-engine", "batch"},
		{"-in", cp, "-serve", ":0", "-status", ":0"},
		{"-in", cp, "-lease-ttl", "5s"},
		{"-in", cp, "-no-such-flag"},
		{"-in", cp, "-quarantine", "-engine=batch"},
		// Retired flags: -engine=batch replaced -batch, and the streaming
		// registry (rsafactor watch) replaced the -prev rescan.
		{"-in", cp, "-batch"},
		{"-in", cp, "-prev", "f"},
	}
	for _, args := range usage {
		err := run(context.Background(), args, nil, &bytes.Buffer{}, &bytes.Buffer{})
		if code := exitCodeOf(err); code != exitUsage {
			t.Errorf("args %v: exit code %d (err %v), want %d", args, code, err, exitUsage)
		}
	}

	// Canceled: -cancel-after trips mid-run.
	jp := filepath.Join(dir, "cancel.jsonl")
	err := run(context.Background(), []string{"-in", cp, "-checkpoint", jp, "-cancel-after", "0"},
		nil, &bytes.Buffer{}, &bytes.Buffer{})
	if code := exitCodeOf(err); code != exitCanceled {
		t.Errorf("cancel-after: exit code %d (err %v), want %d", code, err, exitCanceled)
	}

	// Integrity: a truth file claiming a pair the scan cannot find.
	badTruth := filepath.Join(dir, "badtruth.txt")
	if err := os.WriteFile(badTruth, []byte("2 3 ff\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(context.Background(), []string{"-in", cp, "-truth", badTruth}, nil, &out, &bytes.Buffer{})
	if code := exitCodeOf(err); code != exitIntegrity {
		t.Errorf("bad truth: exit code %d (err %v), want %d\n%s", code, err, exitIntegrity, out.String())
	}

	// OK path for contrast.
	if err := run(context.Background(), []string{"-in", cp}, nil, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Errorf("clean run: %v", err)
	}
}

// TestCheckpointCompactedOnCompletion: a clean checkpointed run leaves a
// canonical journal behind (header + one record per unit, loadable).
func TestCheckpointCompactedOnCompletion(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 10, 128, 1, 5)
	jp := filepath.Join(dir, "run.jsonl")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-checkpoint", jp, "-engine", "hybrid", "-tile", "4"},
		nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	st, err := checkpoint.Load(jp)
	if err != nil {
		t.Fatalf("load compacted journal: %v", err)
	}
	if len(st.Done) != st.Header.Units {
		t.Fatalf("compacted journal has %d/%d units", len(st.Done), st.Header.Units)
	}
}

// TestFleetCLIEndToEnd drives the real binary surface in-process: a
// coordinator on a loopback port, a fingerprint-mismatched worker that
// is turned away, then two good workers that finish the scan. The
// coordinator's findings must match a single-process run byte for byte,
// and its compacted journal must hold every cell.
func TestFleetCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cp, tp := writeCorpus(t, dir, 16, 128, 2, 11)
	jp := filepath.Join(dir, "fleet.jsonl")

	// Local oracle over the same corpus and engine config.
	var localOut bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-engine", "hybrid", "-tile", "4"},
		nil, &localOut, &bytes.Buffer{}); err != nil {
		t.Fatalf("local oracle: %v", err)
	}

	coordErr := &syncBuffer{}
	var coordOut bytes.Buffer
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(context.Background(),
			[]string{"-in", cp, "-serve", "127.0.0.1:0", "-checkpoint", jp, "-tile", "4", "-lease-ttl", "2s", "-truth", tp},
			nil, &coordOut, coordErr)
	}()

	// The port is kernel-assigned; scrape it from the startup line.
	addrRE := regexp.MustCompile(`coordinator on (http://[0-9.:]+) `)
	var url string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(coordErr.String()); m != nil {
			url = m[1]
			break
		}
	}
	if url == "" {
		t.Fatalf("coordinator never printed its address:\n%s", coordErr.String())
	}

	// A worker with different engine flags computes a different
	// fingerprint and must be rejected as misconfigured, not retried.
	err := run(context.Background(), []string{"-in", cp, "-worker", url, "-tile", "8", "-worker-id", "misfit"},
		nil, &bytes.Buffer{}, &bytes.Buffer{})
	if code := exitCodeOf(err); code != exitUsage {
		t.Fatalf("mismatched worker: exit code %d (err %v), want %d", code, err, exitUsage)
	}

	var wg sync.WaitGroup
	workerOuts := make([]bytes.Buffer, 2)
	workerErrs := make([]error, 2)
	for i := range workerOuts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = run(context.Background(),
				[]string{"-in", cp, "-worker", url, "-tile", "4", "-worker-id", fmt.Sprintf("w%d", i)},
				nil, &workerOuts[i], &bytes.Buffer{})
		}(i)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v\n%s", i, werr, workerOuts[i].String())
		}
	}

	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish")
	}

	if got, want := findings(coordOut.String()), findings(localOut.String()); got != want {
		t.Errorf("fleet findings differ from local run:\n--- fleet ---\n%s\n--- local ---\n%s", got, want)
	}
	if !strings.Contains(coordOut.String(), "verification: all 2 planted pairs recovered") {
		t.Errorf("truth verification missing:\n%s", coordOut.String())
	}

	// Every cell journaled exactly once, in compacted canonical form.
	st, err := checkpoint.Load(jp)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	if len(st.Done) != st.Header.Units || len(st.Quarantined()) != 0 {
		t.Fatalf("journal: %d/%d units done, %d quarantined", len(st.Done), st.Header.Units, len(st.Quarantined()))
	}

	completed := 0
	for i := range workerOuts {
		var c int
		var id string
		if _, err := fmt.Sscanf(workerOuts[i].String(), "worker %s %d cells completed", &id, &c); err == nil {
			completed += c
		}
	}
	if completed != st.Header.Units {
		t.Errorf("workers completed %d cells, journal has %d units", completed, st.Header.Units)
	}
}
