package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// findings strips an rsafactor transcript down to its attack findings —
// the lines whose content must be identical between an uninterrupted run
// and an interrupted-then-resumed one (timing and resume banners differ
// by construction).
func findings(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "BROKEN key"),
			strings.HasPrefix(line, "DUPLICATE moduli"),
			strings.HasPrefix(line, "  n = "),
			strings.HasPrefix(line, "  p = "),
			strings.HasPrefix(line, "  q = "),
			strings.HasPrefix(line, "  d = "),
			strings.HasPrefix(line, "summary:"),
			strings.HasPrefix(line, "quarantined"):
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestCheckpointKillResume is the PR's acceptance test at the CLI level:
// a run with -checkpoint killed mid-run, then resumed with -resume
// (repeatedly, with further kills), ends with findings byte-identical to
// an uninterrupted run.
func TestCheckpointKillResume(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 16, 128, 3, 21)

	var cleanOut bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp}, nil, &cleanOut, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	want := findings(cleanOut.String())
	if !strings.Contains(want, "BROKEN key") {
		t.Fatalf("clean run found nothing:\n%s", cleanOut.String())
	}

	journal := filepath.Join(dir, "run.jsonl")

	// First run: journal and kill early.
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", cp, "-checkpoint", journal, "-cancel-after", "5"},
		nil, &out, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("interrupted run: err = %v", err)
	}

	// Resume with further kills at increasing points until one finishes;
	// every intermediate kill must leave a resumable journal.
	var final string
	for attempt, after := 0, int64(20); ; attempt, after = attempt+1, after*3 {
		if attempt > 20 {
			t.Fatal("resume never completed")
		}
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-in", cp, "-resume", journal, "-cancel-after", fmt.Sprint(after)},
			nil, &out, &bytes.Buffer{})
		if err == nil {
			final = out.String()
			break
		}
		if !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("resume attempt %d: %v", attempt, err)
		}
	}
	if !strings.Contains(final, "resuming from") {
		t.Fatalf("resume banner missing:\n%s", final)
	}
	if got := findings(final); got != want {
		t.Fatalf("resumed findings differ from clean run\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestResumeCompletedJournalIsIdempotent: resuming a finished run
// recomputes nothing and reproduces the findings.
func TestResumeCompletedJournalIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 10, 128, 2, 22)
	journal := filepath.Join(dir, "run.jsonl")

	var first bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-checkpoint", journal}, nil, &first, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-resume", journal}, nil, &second, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if findings(first.String()) != findings(second.String()) {
		t.Fatalf("replay differs:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestResumeWrongCorpusRejected: a journal must not be replayed against a
// different corpus.
func TestResumeWrongCorpusRejected(t *testing.T) {
	dir := t.TempDir()
	cp1, _ := writeCorpus(t, dir, 8, 128, 1, 23)
	journal := filepath.Join(dir, "run.jsonl")
	var sink bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp1, "-checkpoint", journal}, nil, &sink, &sink); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	cp2, _ := writeCorpus(t, dir2, 8, 128, 1, 24)
	err := run(context.Background(), []string{"-in", cp2, "-resume", journal}, nil, &sink, &sink)
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

func TestCheckpointFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 6, 128, 1, 25)
	j := filepath.Join(dir, "j.jsonl")
	var sink bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-checkpoint", j, "-resume", j}, nil, &sink, &sink); err == nil {
		t.Error("-checkpoint with -resume accepted")
	}
	if err := run(context.Background(), []string{"-in", cp, "-engine=batch", "-checkpoint", j}, nil, &sink, &sink); err == nil {
		t.Error("-engine=batch with -checkpoint accepted")
	}
	if err := run(context.Background(), []string{"-in", cp, "-engine=batch", "-resume", j}, nil, &sink, &sink); err == nil {
		t.Error("-engine=batch with -resume accepted")
	}
	if err := run(context.Background(), []string{"-in", cp, "-resume", filepath.Join(dir, "missing.jsonl")}, nil, &sink, &sink); err == nil {
		t.Error("missing journal accepted")
	}
}

// TestQuarantineFlag: -quarantine reports bad moduli per-index and scans
// the rest; without it the corrupted corpus fails the run.
func TestQuarantineFlag(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 10, 128, 2, 26)
	// Corrupt the corpus with an even modulus line.
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, append(data, []byte("10\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp}, nil, &sink, &sink); err == nil {
		t.Fatal("corrupted corpus accepted without -quarantine")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-quarantine"}, nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quarantined modulus 10: even") {
		t.Fatalf("quarantine report missing:\n%s", out.String())
	}
	if strings.Count(out.String(), "BROKEN key") != 4 {
		t.Fatalf("quarantined run lost findings:\n%s", out.String())
	}
}
