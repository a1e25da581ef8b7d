// Command gcdbench regenerates the paper's evaluation tables:
//
//	gcdbench -table 4                reproduce Table IV (iteration counts)
//	gcdbench -table 5                reproduce Table V (CPU vs GPU time)
//	gcdbench -table 4,5 -json b.json both tables, plus a JSON report artifact
//	gcdbench -cores 1,2,4,8          multicore scaling sweep (speedup, efficiency)
//	gcdbench -betastats              Section V beta > 0 statistics
//	gcdbench -memops                 Section IV memory-op accounting (Fig. 1)
//	gcdbench -status :8080           live /metrics + pprof while the sweep runs
//
// Scale flags (-pairs, -moduli, -sizes) trade fidelity for runtime; the
// defaults finish in seconds, while the paper-scale values (-pairs 10000,
// -moduli 16384) run for hours exactly like the original evaluation did.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/experiments"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/sigctx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gcdbench: ")
	ctx, stop := sigctx.WithSignals(context.Background(), os.Stderr, "gcdbench")
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run implements the tool; factored out of main so tests can drive it.
func run(ctx context.Context, args []string, stdout, stderrW io.Writer) error {
	fs := flag.NewFlagSet("gcdbench", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		table     = fs.String("table", "", "paper tables to reproduce: 4, 5, or a comma list like 4,5")
		betastats = fs.Bool("betastats", false, "measure Section V beta>0 statistics")
		memops    = fs.Bool("memops", false, "measure Section IV memory operations per iteration")
		crossover = fs.Bool("crossover", false, "compare the attack engines over growing corpora (see -engine)")
		engines   = fs.String("engine", "pairs,batch,hybrid", "comma list of engines for -crossover: pairs|batch|hybrid")
		kernel    = fs.String("kernel", "lanes", "per-pair GCD kernel for -crossover and -cores: lanes (the library's executor: lockstep lane batches for Approximate) or scalar (the reference)")
		ablation  = fs.Bool("ablation", false, "ablate the design choices: word size d and early-terminate threshold")
		pairs     = fs.Int("pairs", 200, "random pairs per size (Table IV/stats; paper: 10000)")
		moduli    = fs.Int("moduli", 192, "corpus size for the bulk run (Table V; paper: 16384)")
		cpuPairs  = fs.Int("cpupairs", 50, "pairs for sequential CPU timing (Table V)")
		simThr    = fs.Int("simthreads", 128, "bulk width for the UMM simulation (Table V)")
		width     = fs.Int("ummwidth", 32, "UMM width w")
		latency   = fs.Int("ummlatency", 200, "UMM latency l")
		clock     = fs.Float64("clock", 1.0, "simulated clock in GHz for unit->time conversion")
		sms       = fs.Int("sms", 15, "simulated streaming multiprocessors (independent UMM units)")
		early     = fs.Bool("early", true, "use early-terminate variants (Table V)")
		workers   = fs.Int("workers", 0, "worker-pool size for both crossover engines (0 = all CPUs)")
		coresStr  = fs.String("cores", "", "comma list of pool widths for the multicore scaling sweep (e.g. 1,2,4,8); pins GOMAXPROCS per point")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		sizesStr  = fs.String("sizes", "512,1024,2048,4096", "comma-separated modulus sizes")
		ckptDir   = fs.String("checkpoint", "", "journal Table V bulk runs to this directory and resume interrupted cells from it")
		jsonOut   = fs.String("json", "", "write the table results as a JSON report (schema "+obs.ReportSchema+") to this file")
		status    = fs.String("status", "", "serve /healthz, /metrics and /debug/pprof on this address (e.g. :8080) while the run lasts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		return err
	}
	tables, err := parseTables(*table)
	if err != nil {
		return err
	}

	// The registry feeds the live status server and the JSON report;
	// either flag turns metrics on.
	var reg *obs.Registry
	if *status != "" || *jsonOut != "" {
		reg = obs.NewRegistry()
	}
	if *status != "" {
		srv, err := obs.ServeStatus(*status, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderrW, "gcdbench: status on http://%s/metrics\n", srv.Addr())
	}
	var rpt *obs.Report
	if *jsonOut != "" {
		rpt = obs.NewReport("gcdbench")
		rpt.Params = map[string]any{
			"tables": *table, "sizes": sizes, "pairs": *pairs,
			"moduli": *moduli, "cpupairs": *cpuPairs, "early": *early,
			"seed": *seed,
		}
	}

	ran := false
	if tables[4] {
		ran = true
		fmt.Fprintf(stdout, "Table IV: mean iterations over %d pairs per size (NT = non-terminate, ET = early-terminate)\n\n", *pairs)
		res, err := experiments.RunTableIV(experiments.TableIVConfig{
			Sizes: sizes, Pairs: *pairs, Seed: *seed, Metrics: reg,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Table().String())
		if rpt != nil {
			rpt.Tables["table_iv"] = res.JSON()
		}
	}
	if tables[5] {
		ran = true
		mode := "early-terminate"
		if !*early {
			mode = "non-terminate"
		}
		fmt.Fprintf(stdout, "Table V: time per GCD, %s; bulk corpus %d moduli; UMM w=%d l=%d clock=%.2fGHz SMs=%d\n",
			mode, *moduli, *width, *latency, *clock, *sms)
		fmt.Fprintf(stdout, "(GPU-par = host-parallel bulk executor; GPU-sim = UMM model simulation)\n\n")
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				return err
			}
		}
		res, err := experiments.RunTableVContext(ctx, experiments.TableVConfig{
			Sizes: sizes, CPUPairs: *cpuPairs, BulkModuli: *moduli,
			SimThreads: *simThr, UMMWidth: *width, UMMLatency: *latency,
			ClockGHz: *clock, SMs: *sms, Early: *early, Seed: *seed,
			CheckpointDir: *ckptDir, Metrics: reg,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Table().String())
		if rpt != nil {
			rpt.Tables["table_v"] = res.JSON()
		}
	}
	if *betastats {
		ran = true
		fmt.Fprintf(stdout, "Section V: approx() beta>0 frequency over %d pairs per size\n\n", *pairs)
		res, err := experiments.RunBetaStats(experiments.BetaStatsConfig{
			Sizes: sizes, Pairs: *pairs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Table().String())
	}
	if *memops {
		ran = true
		fmt.Fprintf(stdout, "Section IV / Figure 1: word memory operations per iteration (early-terminate Approximate)\n\n")
		res, err := experiments.RunMemOps(sizes, *pairs, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Table().String())
	}
	if *crossover {
		ran = true
		size := sizes[0]
		w := *workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		kinds, err := parseEngines(*engines)
		if err != nil {
			return err
		}
		kk, err := engine.ParseKernelKind(*kernel)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Engine comparison at %d bits, %d workers per engine: %s (%s kernel)\n\n", size, w, *engines, kk)
		ps, err := experiments.RunEngineComparisonContext(ctx, size, nil, w, *seed, kinds, kk)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.EngineComparisonTable(ps, kinds).String())
		if rpt != nil {
			rpt.Tables["engine_comparison"] = experiments.EngineComparisonJSON(ps)
		}
	}
	if *coresStr != "" {
		ran = true
		cores, err := parseCores(*coresStr)
		if err != nil {
			return err
		}
		kk, err := engine.ParseKernelKind(*kernel)
		if err != nil {
			return err
		}
		size := sizes[0]
		fmt.Fprintf(stdout, "Multicore scaling: all-pairs engine, %d moduli at %d bits, %s kernel (this machine: %d CPUs)\n\n",
			*moduli, size, kk, runtime.NumCPU())
		ps, err := experiments.RunCoreScalingContext(ctx, experiments.CoreScalingConfig{
			Cores: cores, Moduli: *moduli, Bits: size, Seed: *seed, Kernel: kk,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.CoreScalingTable(ps).String())
		if rpt != nil {
			rpt.Tables["core_scaling"] = experiments.CoreScalingJSON(ps)
		}
	}
	if *ablation {
		ran = true
		size := sizes[0]
		fmt.Fprintf(stdout, "Ablation 1: quotient approximation quality vs word size d (%d-bit moduli, %d pairs)\n\n", size, *pairs)
		wa, err := experiments.RunWordSizeAblation(size, *pairs, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, wa.Table().String())
		fmt.Fprintf(stdout, "\nAblation 2: early-terminate threshold (%d-bit moduli, %d pairs)\n\n", size, *pairs)
		ta, err := experiments.RunThresholdAblation(size, *pairs, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, ta.Table().String())
	}
	if !ran {
		return fmt.Errorf("nothing to do: pass -table 4, -table 5, -betastats, -memops, -crossover, -cores and/or -ablation")
	}
	if rpt != nil {
		rpt.Finish(reg)
		if err := rpt.WriteFile(*jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(stderrW, "gcdbench: wrote %s\n", *jsonOut)
	}
	return nil
}

// parseEngines parses the -engine comma list into engine kinds,
// preserving order and dropping duplicates.
func parseEngines(s string) ([]engine.Kind, error) {
	var out []engine.Kind
	seen := map[engine.Kind]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := engine.ParseKind(part)
		if err != nil {
			return nil, fmt.Errorf("bad engine %q (want pairs, batch or hybrid)", part)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no engines given")
	}
	return out, nil
}

// parseCores parses the -cores comma list into ascending-order-as-given
// pool widths.
func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 || v > 1024 {
			return nil, fmt.Errorf("bad core count %q (need integers in 1..1024)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no core counts given")
	}
	return out, nil
}

// parseTables parses the -table comma list ("", "4", "4,5") into a set.
func parseTables(s string) (map[int]bool, error) {
	out := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || (v != 4 && v != 5) {
			return nil, fmt.Errorf("bad table %q (only 4 and 5 exist)", part)
		}
		out[v] = true
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 64 || v%2 != 0 {
			return nil, fmt.Errorf("bad size %q (need even integers >= 64)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
