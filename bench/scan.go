package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"bulkgcd"
)

const (
	setupReps   = 9   // corpus parses per scan run; setup_s is their median
	warmupScans = 2   // verified but not timed
	minScans    = 5   // timed scans even when one scan outlasts the run
	maxScans    = 200 // cap for tiny corpora
	tracedPairs = 3   // (untraced, traced) scan pairs in a traced run
)

// scanResult is what the scan process reports to the harness. Every
// timed interval comes with the sentinel sample taken just before it.
type scanResult struct {
	SetupS     []float64 `json:"setup_s"`
	SetupCalib []float64 `json:"setup_calib_ms"`
	WallS      []float64 `json:"wall_s"`
	CPUS       []float64 `json:"cpu_s"`
	Calib      []float64 `json:"calib_ms"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Errors     []string  `json:"errors,omitempty"`
	// Traced runs: alternating untraced and traced scans, and the spans
	// of the traced ones.
	UntracedS     []float64 `json:"untraced_s,omitempty"`
	UntracedCalib []float64 `json:"untraced_calib_ms,omitempty"`
	TracedS       []float64 `json:"traced_s,omitempty"`
	TracedCalib   []float64 `json:"traced_calib_ms,omitempty"`
	Spans         []span    `json:"spans,omitempty"`
}

// runScan runs one scan workload in a child process, so that its peak
// RSS and CPU time cover only parsing and scanning, and turns the
// child's samples into metrics.
func runScan(ctx context.Context, c config, cs *corpusSet) (*outcome, error) {
	tr := "0"
	if c.trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, c.self, "-child", cs.Dir, "-workload", c.workload.name,
		"-seconds", strconv.Itoa(c.seconds), "-trace", tr)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("scan process: %w", err)
	}
	var r scanResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("scan process output: %w", err)
	}
	o := &outcome{attempted: r.Attempted, failed: r.Failed, errors: r.Errors,
		metrics: map[string]metric{}, extras: map[string]float64{}}
	o.calibMS = append(append(append(append(o.calibMS, r.SetupCalib...), r.Calib...), r.UntracedCalib...), r.TracedCalib...)
	if c.trace {
		o.spans = r.Spans
		traced := median(normalize(r.TracedS, r.TracedCalib))
		o.metrics["trace.overhead_frac"] = single("frac", traced/median(normalize(r.UntracedS, r.UntracedCalib))-1)
		o.metrics["trace.unattributed_frac"] = sample("frac", unattributed(r.Spans), 1)
		for name, ms := range layerSelfMS(r.Spans) {
			o.extras["self_ms."+name] = ms
		}
		return o, nil
	}
	walls := normalize(r.WallS, r.Calib)
	total := 0.0
	for _, s := range walls {
		total += s
	}
	o.metrics["setup_s"] = sample("s", normalize(r.SetupS, r.SetupCalib), 1)
	o.metrics["op_p50_ms"] = sample("ms", walls, 1000)
	o.extras["op_p90_ms"] = quantile(walls, 0.9) * 1000
	o.extras["cpu_ms_per_op"] = median(r.CPUS) * 1000
	o.metrics["keys_per_s"] = single("1/s", float64(len(cs.Moduli)*len(walls))/total)
	o.metrics["peak_rss_mb"] = single("MB", r.PeakRSSMB)
	o.extras["raw.op_p50_ms"] = median(r.WallS) * 1000
	o.extras["raw.setup_s"] = median(r.SetupS)
	return o, nil
}

// runScanChild is the scan process: it parses the corpus setupReps
// times, then scans it with the workload's engine until the run's time
// is spent, checking every report against the truth.
func runScanChild(w workload, dir string, seconds int, traced bool, stdout, stderr io.Writer) int {
	r, err := scanChild(w, dir, seconds, traced)
	if err != nil {
		fmt.Fprintln(stderr, "bench: scan process:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "bench: scan process:", err)
		return 1
	}
	return 0
}

func scanChild(w workload, dir string, seconds int, traced bool) (*scanResult, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "truth.json"))
	if err != nil {
		return nil, err
	}
	var tr truth
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, err
	}
	res := &scanResult{}
	var moduli []*big.Int
	for i := 0; i < setupReps; i++ {
		res.SetupCalib = append(res.SetupCalib, sentinel(runtime.GOMAXPROCS(0), sentinelIters))
		start := time.Now()
		b, err := os.ReadFile(filepath.Join(dir, "corpus.txt"))
		if err != nil {
			return nil, err
		}
		if moduli, err = bulkgcd.ReadCorpus(bytes.NewReader(b)); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, sinceS(start))
	}

	// scan collects the previous scan's garbage, so every scan starts
	// from the same heap, samples the sentinel, then runs and checks one
	// scan.
	scan := func(extra ...bulkgcd.Option) (t0, t1 time.Time, cpu, calib float64) {
		runtime.GC()
		calib = sentinel(runtime.GOMAXPROCS(0), sentinelIters)
		opts := append([]bulkgcd.Option{bulkgcd.WithEngine(w.engine)}, extra...)
		c0 := cpuSeconds()
		t0 = time.Now()
		rep, err := bulkgcd.New(opts...).Run(context.Background(), moduli)
		t1 = time.Now()
		cpu = cpuSeconds() - c0
		res.Attempted++
		if err == nil {
			err = checkReport(&tr, moduli, rep)
		}
		if err != nil {
			res.Failed++
			if len(res.Errors) < 20 {
				res.Errors = append(res.Errors, err.Error())
			}
		}
		return t0, t1, cpu, calib
	}
	for i := 0; i < warmupScans; i++ {
		scan()
	}
	if !traced {
		start := time.Now()
		for len(res.WallS) < minScans || (sinceS(start) < float64(seconds) && len(res.WallS) < maxScans) {
			t0, t1, cpu, calib := scan()
			res.WallS = append(res.WallS, t1.Sub(t0).Seconds())
			res.CPUS = append(res.CPUS, cpu)
			res.Calib = append(res.Calib, calib)
		}
		res.PeakRSSMB, err = peakRSSMB("self")
		return res, err
	}
	for i := 0; i < tracedPairs; i++ {
		for _, withTrace := range []bool{i%2 == 1, i%2 == 0} {
			if !withTrace {
				t0, t1, _, calib := scan()
				res.UntracedS = append(res.UntracedS, t1.Sub(t0).Seconds())
				res.UntracedCalib = append(res.UntracedCalib, calib)
				continue
			}
			var tbuf, mbuf bytes.Buffer
			t0, t1, _, calib := scan(bulkgcd.WithTrace(&tbuf), bulkgcd.WithMetrics(&mbuf))
			res.TracedS = append(res.TracedS, t1.Sub(t0).Seconds())
			res.TracedCalib = append(res.TracedCalib, calib)
			spans, err := scanSpans(i, t0, t1, w, tbuf.Bytes())
			if err != nil {
				return nil, err
			}
			res.Spans = append(res.Spans, spans...)
		}
	}
	return res, nil
}

// scanSpans builds one traced scan's spans: the benchmark's op span, the
// program's engine spans under it, and "interpret", the rest of the op
// after the engine's run span closes (Attack.Run interprets the engine's
// findings after the engine returns). What precedes the engine — input
// conversion and validation — is left unattributed.
func scanSpans(op int, t0, t1 time.Time, w workload, programTrace []byte) ([]span, error) {
	root := span{ID: fmt.Sprintf("op%d", op), Op: op, Name: "op", Start: t0.UnixNano(), End: t1.UnixNano(),
		Attrs: map[string]any{"engine": w.engine.String()}}
	evs, err := parseProgramTrace(programTrace)
	if err != nil {
		return nil, err
	}
	prog := adoptProgramSpans(evs, op, root)
	spans := append([]span{root}, prog...)
	for _, s := range prog {
		if s.Name == "run" && s.Parent == root.ID {
			spans = append(spans, span{ID: root.ID + "/interpret", Parent: root.ID, Op: op, Name: "interpret",
				Start: s.End, End: root.End})
			return spans, nil
		}
	}
	return nil, fmt.Errorf("program trace of op %d has no engine run span", op)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
