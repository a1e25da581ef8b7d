// Command bench is the repository's end-to-end and per-layer benchmark.
// It generates a ground-truth corpus from a seed, drives the program only
// through its public surfaces (bulkgcd.New(...).Run, bulkgcd.ReadCorpus,
// bulkgcd.OpenRegistry and the `rsafactor watch` HTTP API), checks every
// result against the truth, and prints one JSON result line last.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and rsafactor from the checkout first:
//
//	bash bench/run.sh --workload scan-pairs --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                       # every workload, untraced then traced
//	bash bench/run.sh -compare base.jsonl change.jsonl
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bulkgcd"
)

// workload is one named set of inputs.
type workload struct {
	name   string
	scan   bool           // a corpus scan (else the registry stream)
	engine bulkgcd.Engine // scans only
	full   spec
	quick  spec
}

// Registry-stream traffic. Set-up seeds the head of the corpus in
// requests of seedChunk keys. The open loop then offers streamRate
// submits per second for a third of the run's length, with one GET
// /broken per readEvery submits; seqKeys submits follow one at a time,
// then closedKeys back to back on conns connections. No phase uses more
// than conns connections.
const (
	streamRate = 40
	readEvery  = 10
	conns      = 2
	seqKeys    = 600
	closedKeys = 600
	seedChunk  = 256
)

// registryLoops returns how many keys the open loop, the one-at-a-time
// loop and the closed loop submit; -quick divides the fixed counts by 10.
func registryLoops(quick bool, seconds int) (open, seq, closed int) {
	open, seq, closed = streamRate*seconds/3, seqKeys, closedKeys
	if quick {
		seq, closed = seq/10, closed/10
	}
	return open, seq, closed
}

var workloads = []workload{
	{
		name: "scan-pairs", scan: true, engine: bulkgcd.EnginePairs,
		full:  spec{Keys: 256, Bits: 1024, Clusters: []int{2, 2, 3}, DupPairs: 1, Head: 256},
		quick: spec{Keys: 48, Bits: 512, Clusters: []int{2, 3}, DupPairs: 1, Head: 48},
	},
	{
		name: "scan-hybrid", scan: true, engine: bulkgcd.EngineHybrid,
		full:  spec{Keys: 192, Bits: 2048, Clusters: []int{2, 3, 4}, DupPairs: 1, Head: 192},
		quick: spec{Keys: 96, Bits: 512, Clusters: []int{2, 3}, DupPairs: 1, Head: 96},
	},
	{
		name: "scan-batch", scan: true, engine: bulkgcd.EngineBatch,
		full:  spec{Keys: 2048, Bits: 1024, Clusters: []int{2, 2, 2, 2, 3, 3, 3, 4, 4, 5}, DupPairs: 2, Head: 2048},
		quick: spec{Keys: 128, Bits: 512, Clusters: []int{2, 3}, DupPairs: 1, Head: 128},
	},
	{
		name:  "registry-stream",
		full:  spec{Bits: 1024, Clusters: []int{2, 2, 3}, DupPairs: 1, Head: 1024},
		quick: spec{Bits: 512, Clusters: []int{2}, DupPairs: 1, Head: 32},
	},
}

// corpusSpec returns the workload's corpus shape for a run of the given
// length. The registry stream needs one key per submit it will send.
func (w workload) corpusSpec(quick bool, seconds int) spec {
	sp := w.full
	if quick {
		sp = w.quick
	}
	if !w.scan {
		open, seq, closed := registryLoops(quick, seconds)
		stream := open + seq + closed
		sp.Keys = sp.Head + stream
		sp.TailShared = (stream + 99) / 100   // ~1% share a prime with an earlier key
		sp.TailDups = (3*stream + 999) / 1000 // ~0.3% repeat an earlier key
	}
	return sp
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one benchmark invocation.
type config struct {
	workload  workload
	seed      int64
	seconds   int
	trace     bool
	quick     bool
	cacheDir  string // corpus cache
	outDir    string // this run's result and trace files
	rsafactor string // the rsafactor binary for the registry stream
	self      string // this binary, re-executed as the scan child
}

// metric is one reported number with the distribution behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// sample summarises samples scaled by k as a median metric.
func sample(unit string, xs []float64, k float64) metric {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x * k
	}
	return metric{Value: median(s), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single is a metric measured once.
func single(unit string, v float64) metric { return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	errors            []string
	metrics           map[string]metric
	extras            map[string]float64 // reported; no bound applies
	calibMS           []float64
	spans             []span
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errors) < 20 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// result is the record written for every run, and appended to
// results.jsonl for -compare.
type result struct {
	Schema    string             `json:"schema"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Quick     bool               `json:"quick"`
	Host      host               `json:"host"`
	Time      string             `json:"time"`
	GenS      float64            `json:"harness_gen_s"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Noisy     bool               `json:"noisy"`
	CalibMS   []float64          `json:"calib_ms"`
	Metrics   map[string]metric  `json:"metrics"`
	Extras    map[string]float64 `json:"extras,omitempty"`
}

const resultSchema = "bulkgcd.benchrun.v1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "corpus seed (seed 2 is held out for validating claims)")
		seconds   = fs.Int("seconds", 12, "measured seconds per run (run_seconds in BENCHMARK.json)")
		traceFlag = fs.Int("trace", -1, "0: end-to-end metrics; 1: traced per-layer metrics; default with -workload all: both")
		quick     = fs.Bool("quick", false, "small corpora, for smoke tests")
		root      = fs.String("root", ".", "repository root: BENCHMARK.json, .bench_build/ and bench/out/ live here")
		rsafactor = fs.String("rsafactor", "", "rsafactor binary for the registry stream (default: next to this binary)")
		compare   = fs.Bool("compare", false, "compare two results.jsonl files: -compare base.jsonl change.jsonl")
		child     = fs.String("child", "", "internal: run one scan workload's timed process on this corpus directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "bench: -seconds must be between 1 and 60")
		return 2
	}
	if *child != "" {
		w, ok := findWorkload(*name)
		if !ok || !w.scan {
			fmt.Fprintf(stderr, "bench: -child needs a scan workload, got %q\n", *name)
			return 2
		}
		return runScanChild(w, *child, *seconds, *traceFlag == 1, stdout, stderr)
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *rsafactor == "" {
		*rsafactor = filepath.Join(filepath.Dir(self), "rsafactor")
	}
	base := config{
		seed: *seed, seconds: *seconds, quick: *quick,
		cacheDir:  filepath.Join(*root, ".bench_build", "corpus"),
		rsafactor: *rsafactor, self: self,
	}
	stamp := fmt.Sprintf("%s-%d", time.Now().Format("20060102-150405"), os.Getpid())
	base.outDir = filepath.Join(*root, "bench", "out", stamp)
	results := filepath.Join(*root, "bench", "out", "results.jsonl")

	var runs []config
	for _, tr := range []bool{false, true} {
		for _, w := range workloads {
			if (*name != "all" && *name != w.name) || (*traceFlag >= 0 && tr != (*traceFlag == 1)) {
				continue
			}
			c := base
			c.workload, c.trace = w, tr
			runs = append(runs, c)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(base.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	final := map[string]any{}
	allCorrect, attempted, failed := true, 0, 0
	for _, c := range runs {
		res, err := runOne(c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", c.workload.name, err)
			return 1
		}
		printResult(stdout, res)
		if err := appendJSONL(results, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		allCorrect = allCorrect && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for k, m := range res.Metrics {
			if len(runs) > 1 {
				k = c.workload.name + "/" + k
			}
			final[k] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": allCorrect, "attempted": attempted, "failed": failed, "metrics": final,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOne generates (or loads) the corpus and runs one workload, traced or
// not, within the per-run time limit.
func runOne(c config) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cs, err := loadOrGenerate(c.cacheDir, c.workload.corpusSpec(c.quick, c.seconds), c.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var o *outcome
	if c.workload.scan {
		o, err = runScan(ctx, c, cs)
	} else {
		o, err = runRegistry(ctx, c, cs)
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		if err := runProbes(ctx, c, cs, o); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		path := filepath.Join(c.outDir, "trace-"+c.workload.name+".jsonl")
		if err := writeTrace(path, o.spans); err != nil {
			return nil, err
		}
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	if len(o.metrics) != len(want) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(o.metrics), len(want))
	}
	for _, d := range want {
		if m, ok := o.metrics[d.name]; !ok || m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s was not measured in %s", d.name, d.unit)
		}
	}
	calibSpread := spread(o.calibMS)
	return &result{
		Schema: resultSchema, Workload: c.workload.name, Seed: c.seed, Seconds: c.seconds,
		Trace: c.trace, Quick: c.quick, Host: fingerprint(), Time: time.Now().UTC().Format(time.RFC3339),
		GenS: cs.GenS, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Errors: o.errors,
		Noisy: calibSpread > noisyIQR, CalibMS: o.calibMS, Metrics: o.metrics, Extras: o.extras,
	}, nil
}

func appendJSONL(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the human-readable table for one run.
func printResult(w io.Writer, r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: correct=%v attempted=%d failed=%d gen=%.2fs noisy=%v\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed, r.GenS, r.Noisy)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "   error:", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "   %-34s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d\n", k, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	var extras []string
	for k := range r.Extras {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(w, "   (%s = %.6g)\n", k, r.Extras[k])
	}
}
