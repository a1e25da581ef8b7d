// Command rsafactor is the weak-RSA-key attack tool: it reads a corpus of
// moduli, computes the GCD of all pairs with the selected Euclidean
// algorithm (Approximate by default, run on the lane-batched lockstep
// kernel), and reports every factored key.
//
// Usage:
//
//	rsafactor -in corpus.txt [-alg approximate] [-no-early] [-workers N] [-v]
//	rsafactor -in corpus.txt -engine=batch   # Bernstein batch-GCD engine
//	rsafactor -in corpus.txt -engine=hybrid -tile 64  # tiled product-filter
//	                                         # (-workers and -v apply everywhere)
//	rsafactor -in corpus.txt -truth truth.txt # verify against ground truth
//	rsafactor -in corpus.txt -checkpoint run.jsonl   # journal progress
//	rsafactor -in corpus.txt -resume run.jsonl       # continue after a kill
//	rsafactor -in corpus.txt -status :8080           # live /metrics + pprof
//	rsafactor -in corpus.txt -report out.json        # end-of-run JSON artifact
//	rsafactor -in corpus.txt -trace run-trace.jsonl  # span/event trace
//	rsafactor -in corpus.txt -serve :9090 -checkpoint fleet.jsonl
//	                                         # fleet coordinator (leases cells)
//	rsafactor -in corpus.txt -worker host:9090 [-spill spill.jsonl]
//	                                         # fleet worker (same corpus file)
//
// Output lists, per broken key, the corpus index, the prime factors and
// the recovered private exponent for e = 65537.
//
// A run with -checkpoint journals every completed block; SIGINT/SIGTERM
// cancels cooperatively (in-flight blocks finish, the journal is flushed,
// partial findings are printed). Re-running with -resume picks up where
// the journal left off and produces the same findings an uninterrupted
// run would have.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bulkgcd/internal/attack"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/corpus"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/fleet"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/pemkeys"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/sigctx"
)

var algByName = map[string]gcd.Algorithm{
	"original":    gcd.Original,
	"fast":        gcd.Fast,
	"binary":      gcd.Binary,
	"fastbinary":  gcd.FastBinary,
	"approximate": gcd.Approximate,
}

// Structured exit codes, so orchestration (CI, fleet scripts, cron)
// can distinguish failure modes without parsing stderr. Documented in
// the README; asserted by the CLI acceptance tests.
const (
	exitOK          = 0 // clean completion
	exitFailure     = 1 // generic error (I/O, bad corpus, engine failure)
	exitUsage       = 2 // flag/usage error
	exitCanceled    = 3 // interrupted (signal or -cancel-after)
	exitIntegrity   = 4 // findings failed verification, or conflicting fleet records
	exitQuarantined = 5 // scan finished but cells were quarantined (incomplete coverage)
)

// exitError carries a specific exit code up through run.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// usagef builds an exitUsage error.
func usagef(format string, args ...any) error {
	return &exitError{code: exitUsage, err: fmt.Errorf(format, args...)}
}

// exitCodeOf maps an error from run to the process exit code.
func exitCodeOf(err error) int {
	if err == nil {
		return exitOK
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	if errors.Is(err, fleet.ErrIntegrity) {
		return exitIntegrity
	}
	// A fingerprint mismatch means this invocation's corpus or engine
	// flags disagree with the coordinator's run — a configuration error.
	if errors.Is(err, fleet.ErrFingerprint) || errors.Is(err, flag.ErrHelp) {
		return exitUsage
	}
	if errors.Is(err, context.Canceled) {
		return exitCanceled
	}
	return exitFailure
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rsafactor: ")
	ctx, stop := sigctx.WithSignals(context.Background(), os.Stderr, "rsafactor")
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		log.Print(err)
		stop()
		os.Exit(exitCodeOf(err))
	}
}

// run implements the tool; factored out of main so tests can drive it.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	// `rsafactor watch` is the long-lived registry server; everything
	// else is the one-shot scan below.
	if len(args) > 0 && args[0] == "watch" {
		return runWatch(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("rsafactor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "-", "corpus file (- for stdin)")
		algName    = fs.String("alg", "approximate", "gcd algorithm: original|fast|binary|fastbinary|approximate")
		noEarly    = fs.Bool("no-early", false, "disable s/2 early termination")
		engName    = fs.String("engine", "pairs", "attack engine: pairs|batch|hybrid")
		tile       = fs.Int("tile", 0, "hybrid engine tile width (0 = default 64)")
		workers    = fs.Int("workers", 0, "parallel workers (0 = all CPUs); more workers than CPUs adds no throughput, only scheduling overhead — a free worker always takes the next work unit, so the pool already keeps every core busy")
		e          = fs.Uint64("e", 65537, "RSA public exponent for key recovery")
		truth      = fs.String("truth", "", "ground-truth file from keygen -truth; verify the findings")
		emit       = fs.String("emit", "", "directory to write recovered private keys as PKCS#1 PEM files")
		ckptPath   = fs.String("checkpoint", "", "journal completed blocks to this file (fresh run; see -resume)")
		resumePath = fs.String("resume", "", "resume from this journal, skipping completed blocks, and keep appending to it")
		quarantine = fs.Bool("quarantine", false, "skip zero/even moduli and report them instead of failing the run")
		verbose    = fs.Bool("v", false, "print progress with rate and ETA")
		status     = fs.String("status", "", "serve /healthz, /metrics and /debug/pprof on this address (e.g. :8080) while the run lasts")
		report     = fs.String("report", "", "write an end-of-run JSON report (schema "+obs.ReportSchema+") to this file")
		tracePath  = fs.String("trace", "", "append a JSONL span/event trace of the run to this file")
		serveAddr  = fs.String("serve", "", "run as fleet coordinator: serve the cell-lease protocol plus /metrics on this address (e.g. :9090)")
		workerURL  = fs.String("worker", "", "run as fleet worker: lease cells from the coordinator at this base URL (e.g. http://host:9090)")
		workerID   = fs.String("worker-id", "", "fleet worker identity for leases and the fail quorum (default host-pid)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "coordinator: lease TTL before a silent worker's cell is re-queued (0 = 10s)")
		failQuorum = fs.Int("fail-quorum", 0, "coordinator: distinct workers that must fail a cell before it is quarantined (0 = 3)")
		spillPath  = fs.String("spill", "", "worker: journal a finished-but-unacknowledged cell here if the coordinator is lost")
		// cancelAfter deterministically cancels the run once N pairs have
		// completed; it exists so the interrupt/resume path is testable
		// without racing real signals against the engine.
		cancelAfter = fs.Int64("cancel-after", -1, "")
	)
	if err := fs.Parse(args); err != nil {
		return &exitError{code: exitUsage, err: err}
	}

	alg, ok := algByName[strings.ToLower(*algName)]
	if !ok {
		return usagef("unknown algorithm %q", *algName)
	}
	kind, err := engine.ParseKind(*engName)
	if err != nil {
		return usagef("unknown engine %q (want pairs, batch or hybrid)", *engName)
	}
	if *ckptPath != "" && *resumePath != "" {
		return usagef("-checkpoint starts a fresh journal and -resume continues one; use exactly one")
	}

	// Fleet modes: the coordinator serves the lease protocol; workers dial
	// it. Both distribute hybrid cells, so the hybrid engine is implied
	// when -engine is left at its default.
	if *serveAddr != "" && *workerURL != "" {
		return usagef("-serve and -worker are mutually exclusive")
	}
	if *serveAddr != "" || *workerURL != "" {
		engineSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "engine" {
				engineSet = true
			}
		})
		if !engineSet {
			kind = engine.Hybrid
		}
		if kind != engine.Hybrid {
			return usagef("fleet mode distributes hybrid cells; use -engine=hybrid (or leave -engine unset)")
		}
		if *cancelAfter >= 0 {
			return usagef("-cancel-after is a single-process testing flag; not supported in fleet mode")
		}
	}
	if *serveAddr != "" {
		if *status != "" {
			return usagef("-serve already serves /metrics and /debug/pprof on the coordinator address; drop -status")
		}
		if *resumePath != "" {
			return usagef("the fleet coordinator journal auto-resumes; use -checkpoint (it reopens an existing journal)")
		}
	}
	if *workerURL != "" {
		if *ckptPath != "" || *resumePath != "" {
			return usagef("-checkpoint/-resume belong to the coordinator; workers spill undeliverable cells with -spill")
		}
		if *truth != "" || *emit != "" || *report != "" {
			return usagef("-truth, -emit and -report apply to the coordinator's assembled findings, not to workers")
		}
		if *tracePath != "" {
			return usagef("workers ship trace events to the coordinator; put -trace on -serve for the merged fleet trace")
		}
	}
	if *spillPath != "" && *workerURL == "" {
		return usagef("-spill applies to fleet workers (-worker)")
	}
	if (*workerID != "" || *leaseTTL != 0 || *failQuorum != 0) && *serveAddr == "" && *workerURL == "" {
		return usagef("-worker-id, -lease-ttl and -fail-quorum apply to fleet modes (-serve / -worker)")
	}

	if (*ckptPath != "" || *resumePath != "") && kind == engine.Batch {
		return usagef("checkpointing requires the pairs or hybrid engine")
	}
	if *quarantine && kind == engine.Batch {
		return usagef("-quarantine requires the pairs or hybrid engine")
	}

	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	moduli, sources, err := readCorpus(r, stderr, *quarantine)
	if err != nil {
		return err
	}

	if len(moduli) < 2 {
		return fmt.Errorf("corpus has %d moduli; need at least 2", len(moduli))
	}

	opt := attack.Options{
		Config:     engine.Config{Workers: *workers},
		Algorithm:  alg,
		Early:      !*noEarly,
		Exponent:   *e,
		Engine:     kind,
		Quarantine: *quarantine,
		TileSize:   *tile,
	}

	if *serveAddr != "" {
		return runCoordinator(ctx, coordinatorFlags{
			addr:       *serveAddr,
			ckptPath:   *ckptPath,
			leaseTTL:   *leaseTTL,
			failQuorum: *failQuorum,
			verbose:    *verbose,
			truth:      *truth,
			emit:       *emit,
			exponent:   *e,
			report:     *report,
			tracePath:  *tracePath,
		}, moduli, sources, opt, stdout, stderr)
	}
	if *workerURL != "" {
		return runFleetWorker(ctx, fleetWorkerFlags{
			url:     *workerURL,
			id:      *workerID,
			spill:   *spillPath,
			status:  *status,
			verbose: *verbose,
		}, moduli, opt, stdout, stderr)
	}

	// Observability: the registry feeds both the live status server and
	// the end-of-run report, so either flag turns metrics on.
	var reg *obs.Registry
	if *status != "" || *report != "" {
		reg = obs.NewRegistry()
		opt.Metrics = reg
	}
	if *status != "" {
		srv, err := obs.ServeStatus(*status, reg)
		if err != nil {
			return err
		}
		defer func() {
			// Drain, not drop: a scrape in flight when the scan ends
			// still gets its whole response.
			shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer shCancel()
			_ = srv.Shutdown(shCtx)
		}()
		fmt.Fprintf(stderr, "rsafactor: status on http://%s/metrics\n", srv.Addr())
	}
	var rpt *obs.Report
	if *report != "" {
		rpt = obs.NewReport("rsafactor")
		rpt.Params = map[string]any{
			"alg":        alg.String(),
			"early":      !*noEarly,
			"engine":     kind.String(),
			"tile":       *tile,
			"workers":    *workers,
			"quarantine": *quarantine,
			"checkpoint": *ckptPath,
			"resume":     *resumePath,
		}
	}
	if *tracePath != "" {
		// Append mode: a resumed run extends the interrupted run's trace.
		tf, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer tf.Close()
		opt.Trace = obs.NewTracer(tf)
	}
	switch {
	case *ckptPath != "":
		w, err := checkpoint.Create(*ckptPath)
		if err != nil {
			return err
		}
		defer w.Close()
		opt.Checkpoint = w
	case *resumePath != "":
		st, err := checkpoint.Load(*resumePath)
		if err != nil {
			return err
		}
		w, err := checkpoint.OpenAppend(*resumePath)
		if err != nil {
			return err
		}
		defer w.Close()
		opt.Resume = st
		opt.Checkpoint = w
		fmt.Fprintf(stdout, "resuming from %s: %d/%d blocks done (%d pairs)\n",
			*resumePath, len(st.Done), st.Header.Units, st.Pairs())
	}
	var pp *obs.ProgressPrinter
	if *verbose {
		unit := "pairs"
		if kind == engine.Batch {
			unit = "tree ops"
		}
		pp = obs.NewProgressPrinter(stderr, unit, 250*time.Millisecond)
		opt.Progress = pp.Update
	}
	if *cancelAfter >= 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		inner := opt.Progress
		opt.Progress = func(done, total int64) {
			if done >= *cancelAfter {
				cancel()
			}
			if inner != nil {
				inner(done, total)
			}
		}
	}
	rep, err := attack.RunContext(ctx, moduli, opt)
	if err != nil {
		return err
	}
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.Sync(); err != nil {
			return err
		}
	}
	if pp != nil {
		pp.Finish()
	}

	fmt.Fprintf(stdout, "corpus: %d moduli, %d bits\n", rep.Moduli, moduli[0].BitLen())
	switch kind {
	case engine.Batch:
		fmt.Fprintf(stdout, "method: batch GCD (product/remainder tree, %d workers) in %v\n",
			rep.Bulk.Workers, rep.Bulk.Elapsed.Round(1000))
	case engine.Hybrid:
		fmt.Fprintf(stdout, "method: hybrid tiled product filter with %s (%d workers) in %v\n",
			alg, rep.Bulk.Workers, rep.Bulk.Elapsed.Round(1000))
		fmt.Fprintf(stdout, "pairs: %d covered (%.0f pairs/s); %d GCD iterations on the descended pairs\n",
			rep.Bulk.Pairs, rep.Bulk.PairsPerSecond(), rep.Bulk.Stats.Iterations)
	default:
		fmt.Fprintf(stdout, "pairs: %d computed with %s (%d workers) in %v (%.0f pairs/s)\n",
			rep.Bulk.Pairs, alg, rep.Bulk.Workers, rep.Bulk.Elapsed.Round(1000),
			rep.Bulk.PairsPerSecond())
		fmt.Fprintf(stdout, "iterations: %d total, %.1f per pair\n",
			rep.Bulk.Stats.Iterations, float64(rep.Bulk.Stats.Iterations)/float64(rep.Bulk.Pairs))
	}

	printFindings(stdout, rep)

	if rpt != nil {
		// The summary mirrors the attack Report itself (not the metric
		// counters), so a resumed run's artifact reconciles exactly with
		// the printed findings: resumed pairs count toward pairs here but
		// are excluded from the fresh-pair throughput metrics.
		rpt.Summary = map[string]any{
			"moduli":             rep.Moduli,
			"pairs":              rep.Bulk.Pairs,
			"total_pairs":        rep.Bulk.Total,
			"resumed_pairs":      rep.Bulk.ResumedPairs,
			"workers":            rep.Bulk.Workers,
			"broken":             len(rep.Broken),
			"duplicate_pairs":    len(rep.Duplicates),
			"quarantined_moduli": len(rep.Quarantined),
			"quarantined_pairs":  len(rep.BadPairs),
			"canceled":           rep.Canceled,
		}
		rpt.Finish(reg)
		if err := rpt.WriteFile(*report); err != nil {
			return err
		}
	}

	if rep.Canceled {
		// The findings above cover only the completed blocks; emit/truth
		// would operate on an incomplete report, so they are skipped.
		if opt.Checkpoint != nil {
			return &exitError{code: exitCanceled, err: fmt.Errorf("interrupted after %d/%d pairs; resume with -resume %s",
				rep.Bulk.Pairs, rep.Bulk.Total, opt.Checkpoint.Path())}
		}
		return &exitError{code: exitCanceled, err: fmt.Errorf("interrupted after %d/%d pairs (run with -checkpoint to make interrupted runs resumable)",
			rep.Bulk.Pairs, rep.Bulk.Total)}
	}

	// Clean completion: the journal has served its purpose, but a long
	// resumed run leaves duplicates and torn fragments behind; compact it
	// to the canonical minimal form so archival copies stay small.
	if opt.Checkpoint != nil {
		jpath := opt.Checkpoint.Path()
		if err := opt.Checkpoint.Close(); err != nil {
			return err
		}
		if dropped, err := checkpoint.Compact(jpath); err != nil {
			fmt.Fprintf(stderr, "rsafactor: journal compaction failed: %v\n", err)
		} else if dropped > 0 {
			fmt.Fprintf(stdout, "journal %s compacted: %d redundant lines dropped\n", jpath, dropped)
		}
	}

	if *emit != "" {
		if err := emitPrivateKeys(stdout, *emit, rep, sources, *e); err != nil {
			return err
		}
	}
	if *truth != "" {
		return verifyTruth(stdout, *truth, rep)
	}
	return nil
}

// printFindings prints the findings block — quarantined moduli/pairs,
// BROKEN/DUPLICATE lines and the summary — shared verbatim between the
// single-process and fleet-coordinator paths, so a fleet scan's output
// diffs clean against a local run of the same corpus.
func printFindings(stdout io.Writer, rep *attack.Report) {
	for _, q := range rep.Quarantined {
		fmt.Fprintf(stdout, "quarantined modulus %d: %s (excluded from the scan)\n", q.Index, q.Reason)
	}
	for _, bp := range rep.BadPairs {
		fmt.Fprintf(stdout, "quarantined pair (%d,%d): %s\n", bp.I, bp.J, bp.Err)
	}

	if len(rep.Broken) == 0 && len(rep.Duplicates) == 0 {
		fmt.Fprintln(stdout, "no weak keys found")
	}
	for _, bk := range rep.Broken {
		fmt.Fprintf(stdout, "\nBROKEN key %d (found with key %d)\n", bk.Index, bk.FoundWith)
		fmt.Fprintf(stdout, "  n = %x\n", bk.N)
		fmt.Fprintf(stdout, "  p = %x\n", bk.P)
		fmt.Fprintf(stdout, "  q = %x\n", bk.Q)
		if bk.D != nil {
			fmt.Fprintf(stdout, "  d = %x\n", bk.D)
		} else {
			fmt.Fprintf(stdout, "  d = (not recovered: factors not two distinct primes, or e not invertible)\n")
		}
	}
	for _, d := range rep.Duplicates {
		fmt.Fprintf(stdout, "\nDUPLICATE moduli: keys %d and %d are identical\n", d[0], d[1])
	}
	fmt.Fprintf(stdout, "\nsummary: %d broken, %d duplicate pairs out of %d keys\n",
		len(rep.Broken), len(rep.Duplicates), rep.Moduli)
}

// readCorpus reads moduli in either format: PEM streams (public keys and
// certificates, the shape of real collected key sets) are detected by the
// PEM armour; anything else is the line-oriented hex corpus format.
// sources is non-nil only for PEM input. With lenient set, zero/even
// moduli pass through to the attack layer's quarantine instead of
// failing the whole corpus.
func readCorpus(r io.Reader, stderr io.Writer, lenient bool) ([]*mpnat.Nat, []pemkeys.Source, error) {
	src := corpus.NewSource(r)
	if lenient {
		src = corpus.NewLenientSource(r)
	}
	var ms []*mpnat.Nat
	var sources []pemkeys.Source
	for src.Next() {
		rec := src.Record()
		ms = append(ms, rec.N)
		if rec.PEM != nil {
			sources = append(sources, *rec.PEM)
		}
	}
	for _, sk := range src.Skipped() {
		fmt.Fprintf(stderr, "rsafactor: skipped PEM block %d (%s): %s\n", sk.Pos, sk.Label, sk.Reason)
	}
	if err := src.Err(); err != nil {
		return nil, nil, err
	}
	return ms, sources, nil
}

// emitPrivateKeys writes each fully recovered key as key<index>.pem under
// dir. A key is emitted only when both factors pass the attack's
// primality test; d is re-derived with the key's own exponent when PEM
// sources carry one, and with defaultE otherwise. The factors of a key
// with a D passed that test during interpretation, so only keys without
// one are tested here: P = Q, a composite factor, or an attack exponent
// that is not invertible while the key's own may be.
func emitPrivateKeys(stdout io.Writer, dir string, rep *attack.Report, sources []pemkeys.Source, defaultE uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := 0
	for _, bk := range rep.Broken {
		if bk.D == nil && (!attack.IsPrime(bk.P) || !attack.IsPrime(bk.Q)) {
			fmt.Fprintf(stdout, "key %d: cannot emit (factors not both prime)\n", bk.Index)
			continue
		}
		e := defaultE
		if sources != nil && sources[bk.Index].E != 0 {
			e = sources[bk.Index].E
		}
		d, _, err := rsakey.RecoverPrivate(bk.N, bk.P, e)
		if err != nil {
			fmt.Fprintf(stdout, "key %d: cannot emit (%v)\n", bk.Index, err)
			continue
		}
		key, err := pemkeys.AssemblePrivateKey(bk.N, bk.P, bk.Q, d, e)
		if err != nil {
			fmt.Fprintf(stdout, "key %d: cannot emit (%v)\n", bk.Index, err)
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("key%d.pem", bk.Index))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pemkeys.WritePrivateKey(f, key); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written++
	}
	fmt.Fprintf(stdout, "emitted %d private keys to %s\n", written, dir)
	return nil
}

// verifyTruth compares the attack findings against a keygen ground-truth
// file ("i j prime-hex" lines) and reports mismatches as an error.
func verifyTruth(stdout io.Writer, path string, rep *attack.Report) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	brokenBy := map[int]attack.BrokenKey{}
	for _, bk := range rep.Broken {
		brokenBy[bk.Index] = bk
	}
	var missing int
	var pairs int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var i, j int
		var primeHex string
		if _, err := fmt.Sscanf(line, "%d %d %s", &i, &j, &primeHex); err != nil {
			return fmt.Errorf("truth file: bad line %q: %v", line, err)
		}
		p, ok := new(big.Int).SetString(primeHex, 16)
		if !ok {
			return fmt.Errorf("truth file: bad prime %q", primeHex)
		}
		pairs++
		for _, idx := range []int{i, j} {
			bk, found := brokenBy[idx]
			if !found {
				fmt.Fprintf(stdout, "MISSED: key %d (planted pair %d,%d) not broken\n", idx, i, j)
				missing++
				continue
			}
			if bk.P.Cmp(p) != 0 && bk.Q.Cmp(p) != 0 {
				fmt.Fprintf(stdout, "WRONG FACTOR: key %d broken without the planted prime\n", idx)
				missing++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if missing > 0 {
		return &exitError{code: exitIntegrity,
			err: fmt.Errorf("verification failed: %d mismatches against %d planted pairs", missing, pairs)}
	}
	fmt.Fprintf(stdout, "verification: all %d planted pairs recovered\n", pairs)
	return nil
}
