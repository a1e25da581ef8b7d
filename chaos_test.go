package bulkgcd

// Chaos suite: deterministic fault-injection campaigns over the full
// attack stack. Each round builds a weak corpus, computes an oracle with
// an uninterrupted run, then kills, panics, or resumes a journaled run at
// seeded points and asserts the surviving findings match the oracle.
// Unlike the soak tests, these stay enabled under -short (with reduced
// rounds) so the CI chaos job covers them under the race detector.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bulkgcd/internal/attack"
	"bulkgcd/internal/bulk"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/fleet"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
)

func chaosRounds(full int) int {
	if testing.Short() {
		if full > 2 {
			return 2
		}
	}
	return full
}

func chaosCorpus(t *testing.T, r *rand.Rand, seed int64) ([]*mpnat.Nat, []PlantedPair) {
	t.Helper()
	count := 10 + r.Intn(10)
	weak := 1 + r.Intn(3)
	moduli, planted, err := GenerateWeakCorpus(count, 128, weak, seed)
	if err != nil {
		t.Fatal(err)
	}
	nats := make([]*mpnat.Nat, len(moduli))
	for i, m := range moduli {
		nats[i] = mpnat.FromBig(m)
	}
	return nats, planted
}

func sameBroken(t *testing.T, label string, got, want []attack.BrokenKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: broke %d keys, oracle broke %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.P.Cmp(w.P) != 0 || g.Q.Cmp(w.Q) != 0 {
			t.Fatalf("%s: broken key %d differs from oracle", label, i)
		}
		if (g.D == nil) != (w.D == nil) || (g.D != nil && g.D.Cmp(w.D) != 0) {
			t.Fatalf("%s: key %d private exponent differs from oracle", label, i)
		}
	}
}

// TestChaosKillResume kills journaled runs at randomized pair ordinals —
// including repeated kills across successive resumes — and asserts the
// eventually-completed run reproduces the uninterrupted oracle exactly.
func TestChaosKillResume(t *testing.T) {
	r := rand.New(rand.NewSource(2001))
	for round := 0; round < chaosRounds(8); round++ {
		nats, _ := chaosCorpus(t, r, int64(5000+round))
		oracle, err := attack.Run(nats, attack.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		total := int64(len(nats)*(len(nats)-1)) / 2

		path := filepath.Join(t.TempDir(), "chaos.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		killAt := r.Int63n(total)
		var rep *attack.Report
		for attempt := 0; ; attempt++ {
			if attempt > 50 {
				t.Fatalf("round %d: run never completed", round)
			}
			ctx, cancel := context.WithCancel(context.Background())
			plan := faultinject.NewPlan()
			plan.CancelAtPair = killAt
			plan.Cancel = cancel
			opt := attack.DefaultOptions()
			opt.Workers = 1 + r.Intn(4)
			opt.Checkpoint = w
			opt.Fault = plan.Hook()
			if attempt > 0 {
				st, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				opt.Resume = st
			}
			rep, err = attack.RunContext(ctx, nats, opt)
			cancel()
			if err != nil {
				t.Fatalf("round %d attempt %d: %v", round, attempt, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !rep.Canceled {
				break
			}
			// Partial findings must already be a subset of the oracle.
			seen := map[int]bool{}
			for _, bk := range oracle.Broken {
				seen[bk.Index] = true
			}
			for _, bk := range rep.Broken {
				if !seen[bk.Index] {
					t.Fatalf("round %d: partial run broke key %d the oracle did not", round, bk.Index)
				}
			}
			// Kill the next attempt a bit later, so runs make progress and
			// eventually finish.
			killAt += 1 + r.Int63n(total/2+1)
			w, err = checkpoint.OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
		}
		sameBroken(t, "kill/resume", rep.Broken, oracle.Broken)
	}
}

// TestChaosInjectedPanics panics a worker at a seeded pair whose moduli
// share nothing; the pair must be quarantined as a BadPair and every
// oracle finding must survive.
func TestChaosInjectedPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	for round := 0; round < chaosRounds(6); round++ {
		nats, planted := chaosCorpus(t, r, int64(6000+round))
		oracle, err := attack.Run(nats, attack.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		weak := map[int]bool{}
		for _, pp := range planted {
			weak[pp.I] = true
			weak[pp.J] = true
		}
		// Target a pair of strong keys: its GCD is 1, so quarantining it
		// provably loses no findings.
		var target [2]int
		for {
			i, j := r.Intn(len(nats)), r.Intn(len(nats))
			if i != j && !weak[i] && !weak[j] {
				if i > j {
					i, j = j, i
				}
				target = [2]int{i, j}
				break
			}
		}
		plan := faultinject.NewPlan()
		plan.PanicAtIJ = &target
		opt := attack.DefaultOptions()
		opt.Workers = 1 + r.Intn(4)
		opt.Fault = plan.Hook()
		rep, err := attack.Run(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.BadPairs) != 1 || rep.BadPairs[0].I != target[0] || rep.BadPairs[0].J != target[1] {
			t.Fatalf("round %d: BadPairs = %+v, want exactly (%d,%d)", round, rep.BadPairs, target[0], target[1])
		}
		sameBroken(t, "panic quarantine", rep.Broken, oracle.Broken)
	}
}

// TestChaosBigIntOracle cross-checks one chaos round against the public
// big.Int API, tying the internal campaigns back to the documented
// surface: Attack.Run with a dead context reports Canceled with a subset
// of the full findings.
func TestChaosBigIntOracle(t *testing.T) {
	moduli, _, err := GenerateWeakCorpus(12, 128, 2, 8001)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New().Run(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := New().Run(ctx, moduli)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("dead context did not report Canceled")
	}
	if len(rep.Broken) != 0 {
		t.Fatalf("pre-canceled run broke %d keys", len(rep.Broken))
	}
	if len(full.Broken) != 4 {
		t.Fatalf("oracle broke %d keys, want 4", len(full.Broken))
	}
}

// chaosFleetOptions builds a randomized hybrid attack configuration for
// the fleet campaigns (fleet mode distributes hybrid cells).
func chaosFleetOptions(r *rand.Rand) attack.Options {
	opt := attack.DefaultOptions()
	opt.Engine = engine.Hybrid
	opt.TileSize = 3 + r.Intn(4)
	return opt
}

// chaosFleetWorkers runs n workers concurrently with per-worker configs
// and fails the test on any worker error.
func chaosFleetWorkers(t *testing.T, ctx context.Context, n int, mk func(i int) fleet.WorkerConfig) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = fleet.RunWorker(ctx, mk(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// assembleFleet rebuilds the attack report from the coordinator's
// records, exactly as rsafactor -serve does after the scan.
func assembleFleet(t *testing.T, nats []*mpnat.Nat, opt attack.Options, coord *fleet.Coordinator) *attack.Report {
	t.Helper()
	runner, err := bulk.NewCellRunner(nats, opt.BulkConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Assemble(coord.Records())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := attack.Interpret(nats, res, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertFleetJournal asserts the exactly-once contract: the journal
// holds one record per cell (completed or quarantined), nothing ignored.
func assertFleetJournal(t *testing.T, path string, hdr checkpoint.Header, wantQuarantined int) {
	t.Helper()
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(hdr); err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != hdr.Units || st.Ignored != 0 {
		t.Fatalf("journal: %d/%d cells recorded, %d lines ignored", len(st.Done), hdr.Units, st.Ignored)
	}
	if q := st.Quarantined(); len(q) != wantQuarantined {
		t.Fatalf("journal: %d quarantined cells, want %d: %v", len(q), wantQuarantined, q)
	}
}

// TestChaosFleetPartition drops, duplicates and stalls protocol messages
// between three workers and the coordinator — stalls longer than the
// lease TTL, so leases expire under their holders and cells are
// re-leased mid-compute — and asserts the assembled findings are
// identical to an undisturbed single-process run, with every cell
// journaled exactly once.
func TestChaosFleetPartition(t *testing.T) {
	r := rand.New(rand.NewSource(2004))
	for round := 0; round < chaosRounds(4); round++ {
		nats, _ := chaosCorpus(t, r, int64(8000+round))
		opt := chaosFleetOptions(r)
		oracle, err := attack.Run(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := attack.JournalHeader(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fleet.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Header: hdr, LeaseTTL: 60 * time.Millisecond, Journal: w, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lb := fleet.NewLoopback(coord)

		ctx := context.Background()
		chaosFleetWorkers(t, ctx, 3, func(i int) fleet.WorkerConfig {
			wcfg := opt.BulkConfig()
			wcfg.Metrics = obs.NewRegistry()
			return fleet.WorkerConfig{
				ID: fmt.Sprintf("w%d", i),
				Transport: &fleet.ChaosTransport{Inner: lb, Plan: &faultinject.RPCPlan{
					PDropRequest: 0.1, PDropReply: 0.1, PDuplicate: 0.15,
					PDelay: 0.05, Delay: 70 * time.Millisecond,
					Seed: int64(100*round + i + 1),
				}},
				Moduli: nats, Config: wcfg,
				Backoff: fleet.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 200},
			}
		})
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		err = coord.Wait(waitCtx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: scan never finished: %v", round, err)
		}
		rep := assembleFleet(t, nats, opt, coord)
		sameBroken(t, "fleet partition", rep.Broken, oracle.Broken)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		assertFleetJournal(t, path, hdr, 0)
	}
}

// TestChaosFleetCoordinatorCrash kills the coordinator twice mid-scan —
// in-flight leases and unsent acks die with it — rebuilds it from its
// journal and swaps it back in while the workers are still retrying.
// The finished scan must match the oracle and the journal must hold
// every cell exactly once across all three coordinator incarnations.
func TestChaosFleetCoordinatorCrash(t *testing.T) {
	r := rand.New(rand.NewSource(2005))
	for round := 0; round < chaosRounds(3); round++ {
		nats, _ := chaosCorpus(t, r, int64(8500+round))
		opt := chaosFleetOptions(r)
		oracle, err := attack.Run(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := attack.JournalHeader(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "crash.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Header: hdr, LeaseTTL: 50 * time.Millisecond, Journal: w, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lb := fleet.NewLoopback(coord)

		ctx := context.Background()
		workersDone := make(chan struct{})
		go func() {
			defer close(workersDone)
			chaosFleetWorkers(t, ctx, 3, func(i int) fleet.WorkerConfig {
				wcfg := opt.BulkConfig()
				wcfg.Metrics = obs.NewRegistry()
				return fleet.WorkerConfig{
					ID: fmt.Sprintf("w%d", i), Transport: lb, Moduli: nats, Config: wcfg,
					Backoff: fleet.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 2000},
				}
			})
		}()

		for crash := 0; crash < 2 && !coord.Done(); crash++ {
			time.Sleep(time.Duration(5+r.Intn(20)) * time.Millisecond)
			// Kill: every call now fails like a refused connection, and the
			// journal file is all that survives.
			lb.SetDown(true)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err = checkpoint.OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
				Header: hdr, LeaseTTL: 50 * time.Millisecond, Journal: w, Resume: st,
				Metrics: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatalf("round %d crash %d: restart from journal: %v", round, crash, err)
			}
			lb.Swap(coord)
		}

		select {
		case <-workersDone:
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d: workers never finished", round)
		}
		waitCtx, cancel := context.WithTimeout(ctx, time.Second)
		err = coord.Wait(waitCtx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: final coordinator not done: %v", round, err)
		}
		rep := assembleFleet(t, nats, opt, coord)
		sameBroken(t, "coordinator crash", rep.Broken, oracle.Broken)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		assertFleetJournal(t, path, hdr, 0)
	}
}

// TestChaosFleetPoisonedCell panics every worker on one randomly chosen
// cell: the distinct-worker quorum must quarantine exactly that cell,
// the scan must still terminate, and the findings must equal a local
// assembly of every *other* cell — quarantine loses only the poisoned
// cell's pairs, never a healthy cell's findings.
func TestChaosFleetPoisonedCell(t *testing.T) {
	r := rand.New(rand.NewSource(2006))
	for round := 0; round < chaosRounds(3); round++ {
		nats, _ := chaosCorpus(t, r, int64(9000+round))
		opt := chaosFleetOptions(r)
		runner, err := bulk.NewCellRunner(nats, opt.BulkConfig())
		if err != nil {
			t.Fatal(err)
		}
		hdr := runner.Header()
		poison := r.Intn(hdr.Units)

		// Expected findings: every cell but the poisoned one, computed
		// locally.
		records := map[int]checkpoint.Record{}
		for u := 0; u < hdr.Units; u++ {
			if u == poison {
				continue
			}
			rec, err := runner.RunUnit(context.Background(), u)
			if err != nil {
				t.Fatal(err)
			}
			records[u] = rec
		}
		res, err := runner.Assemble(records)
		if err != nil {
			t.Fatal(err)
		}
		expected, err := attack.Interpret(nats, res, opt)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "poison.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Header: hdr, LeaseTTL: 200 * time.Millisecond, FailQuorum: 2,
			Journal: w, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lb := fleet.NewLoopback(coord)
		ctx := context.Background()
		chaosFleetWorkers(t, ctx, 3, func(i int) fleet.WorkerConfig {
			wcfg := opt.BulkConfig()
			wcfg.Metrics = obs.NewRegistry()
			wcfg.Fault = &faultinject.Hook{Block: func(u int) {
				if u == poison {
					panic("chaos: poisoned cell")
				}
			}}
			return fleet.WorkerConfig{
				ID: fmt.Sprintf("w%d", i), Transport: lb, Moduli: nats, Config: wcfg,
				Backoff: fleet.Backoff{Base: time.Millisecond, Attempts: 50},
			}
		})
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		err = coord.Wait(waitCtx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: scan never finished: %v", round, err)
		}
		bad := coord.BadCells()
		if len(bad) != 1 || bad[poison] == "" {
			t.Fatalf("round %d: BadCells() = %v, want exactly cell %d", round, bad, poison)
		}
		rep := assembleFleet(t, nats, opt, coord)
		sameBroken(t, "poisoned cell", rep.Broken, expected.Broken)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		assertFleetJournal(t, path, hdr, 1)
	}
}

// chaosAttrInt reads an int-valued trace attribute (int in-process,
// float64 after a JSON round trip).
func chaosAttrInt(v any) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		return int(n)
	}
	return -1
}

// TestChaosFleetTraceContinuity kills and rebuilds the coordinator
// mid-scan under a lossy transport, with every incarnation tracing into
// the same sink (the append-mode trace file in production). The merged
// trace must stay coherent across the crash: exactly one cell span per
// completed cell regardless of retries, duplications and re-leases;
// retry events present; every parent reference resolving to an emitted
// span (the deterministic coordinator:1 run-span ID is what re-adopts
// pre-crash cell spans); and findings identical to the oracle.
func TestChaosFleetTraceContinuity(t *testing.T) {
	r := rand.New(rand.NewSource(2008))
	nats, _ := chaosCorpus(t, r, 8800)
	opt := chaosFleetOptions(r)
	oracle, err := attack.Run(nats, opt)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := attack.JournalHeader(nats, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "continuity.jsonl")
	w, err := checkpoint.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{} // stands in for the append-mode trace file
	mkCoord := func(journal *checkpoint.Writer, st *checkpoint.State) *fleet.Coordinator {
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Header: hdr, LeaseTTL: 50 * time.Millisecond, Journal: journal, Resume: st,
			Metrics: obs.NewRegistry(), Trace: obs.NewTracerSink(col),
		})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		return coord
	}
	coord := mkCoord(w, nil)
	lb := fleet.NewLoopback(coord)

	ctx := context.Background()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		chaosFleetWorkers(t, ctx, 3, func(i int) fleet.WorkerConfig {
			wcfg := opt.BulkConfig()
			wcfg.Metrics = obs.NewRegistry()
			return fleet.WorkerConfig{
				ID: fmt.Sprintf("w%d", i),
				Transport: &fleet.ChaosTransport{Inner: lb, Plan: &faultinject.RPCPlan{
					PDropRequest: 0.1, PDropReply: 0.1, PDuplicate: 0.1,
					Seed: int64(300 + i),
				}},
				Moduli: nats, Config: wcfg,
				Backoff: fleet.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 2000},
			}
		})
	}()

	for crash := 0; crash < 2 && !coord.Done(); crash++ {
		time.Sleep(time.Duration(5+r.Intn(20)) * time.Millisecond)
		lb.SetDown(true)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err = checkpoint.OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		coord = mkCoord(w, st)
		lb.Swap(coord)
	}

	select {
	case <-workersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("workers never finished")
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Second)
	err = coord.Wait(waitCtx)
	cancel()
	if err != nil {
		t.Fatalf("final coordinator not done: %v", err)
	}
	rep := assembleFleet(t, nats, opt, coord)
	sameBroken(t, "trace continuity", rep.Broken, oracle.Broken)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	evs := col.Drain()
	spanIDs := map[string]bool{}
	cellSpans := map[int]int{}
	var runSpans, retries int
	for _, ev := range evs {
		if ev.Kind != "span" {
			if ev.Name == "retry" {
				retries++
			}
			continue
		}
		spanIDs[ev.SpanID] = true
		switch ev.Name {
		case "fleet_run":
			runSpans++
			if ev.SpanID != "coordinator:1" {
				t.Fatalf("run span ID %q: the crash-heal parentage contract needs coordinator:1", ev.SpanID)
			}
		case "cell":
			cellSpans[chaosAttrInt(ev.Attrs["cell"])]++
		}
	}
	// Normally exactly one (only the finishing incarnation ends its run
	// span), but a crash landing after the last completion resumes an
	// already-done grid and seals again — both spans share the
	// deterministic ID, so parentage still resolves.
	if runSpans < 1 {
		t.Fatal("no fleet_run span in merged trace")
	}
	if len(cellSpans) != hdr.Units {
		t.Fatalf("cell spans cover %d of %d cells", len(cellSpans), hdr.Units)
	}
	for unit, n := range cellSpans {
		if n != 1 {
			t.Fatalf("cell %d has %d spans, want exactly one", unit, n)
		}
	}
	if retries == 0 {
		t.Fatal("lossy transport produced no retry events in the merged trace")
	}
	for _, ev := range evs {
		if ev.Parent != "" && !spanIDs[ev.Parent] {
			t.Fatalf("orphan parent %q on %s %q", ev.Parent, ev.Kind, ev.Name)
		}
	}
}

// TestChaosFleetStraggler plants a faultinject delay on one cell and
// asserts the coordinator's straggler rule rather than this host's
// timing: the delayed cell is flagged, every other flagged cell really
// ran past StragglerFactor x the median completed-cell duration when it
// was flagged (a loaded host can make any cell a genuine straggler), and
// the scan still completes with oracle-identical findings.
func TestChaosFleetStraggler(t *testing.T) {
	r := rand.New(rand.NewSource(2009))
	nats, _ := chaosCorpus(t, r, 8900)
	opt := attack.DefaultOptions()
	opt.Engine = engine.Hybrid
	opt.TileSize = 3 // enough cells for the median to form first
	oracle, err := attack.Run(nats, opt)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := attack.JournalHeader(nats, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The last cell sleeps 1.5s; the rest finish in microseconds, so the
	// median forms long before the sleeper passes 4x median, and the
	// other worker's requests (or the sleeper's own heartbeats at TTL/3 =
	// 1s) sweep it into the flagged state well before it completes.
	slow := hdr.Units - 1
	const factor = 4.0
	col := &obs.Collector{}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Header: hdr, LeaseTTL: 3 * time.Second, Metrics: obs.NewRegistry(),
		Trace: obs.NewTracerSink(col), StragglerFactor: factor,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := fleet.NewLoopback(coord)
	ctx := context.Background()
	chaosFleetWorkers(t, ctx, 2, func(i int) fleet.WorkerConfig {
		wcfg := opt.BulkConfig()
		wcfg.Metrics = obs.NewRegistry()
		plan := faultinject.NewPlan()
		plan.SlowUnit = slow
		plan.SlowFor = 1500 * time.Millisecond
		wcfg.Fault = plan.Hook()
		return fleet.WorkerConfig{
			ID: fmt.Sprintf("w%d", i), Transport: lb, Moduli: nats, Config: wcfg,
			Backoff: fleet.Backoff{Base: time.Millisecond, Attempts: 50},
		}
	})
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	err = coord.Wait(waitCtx)
	cancel()
	if err != nil {
		t.Fatalf("scan never finished: %v", err)
	}

	cells, err := coord.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[int]bool{}
	for _, cs := range cells.Cells {
		if cs.Straggler {
			flagged[cs.Unit] = true
		}
	}
	if !flagged[slow] {
		t.Fatalf("delayed cell %d not flagged as a straggler", slow)
	}
	// Each flag leaves one straggler event recording the cell's running
	// time and the median it was judged against.
	justified := map[int]bool{}
	for _, ev := range col.Drain() {
		if ev.Kind != "event" || ev.Name != "straggler" {
			continue
		}
		unit := chaosAttrInt(ev.Attrs["cell"])
		running, _ := ev.Attrs["running_seconds"].(float64)
		median, _ := ev.Attrs["median_seconds"].(float64)
		if median <= 0 || running <= factor*median {
			t.Fatalf("cell %d flagged after %.4fs against a %.4fs median: not past %gx", unit, running, median, factor)
		}
		if wall := cells.Cells[unit].WallSeconds; wall < running {
			t.Fatalf("cell %d flagged after %.4fs running but its wall time is %.4fs", unit, running, wall)
		}
		justified[unit] = true
	}
	for unit := range flagged {
		if !justified[unit] {
			t.Fatalf("cell %d flagged without a straggler event", unit)
		}
	}
	if got := coord.MergedSnapshot().Counters["fleet_stragglers_total"]; got != int64(len(flagged)) {
		t.Fatalf("fleet_stragglers_total = %d, want one per flagged cell (%d)", got, len(flagged))
	}
	rep := assembleFleet(t, nats, opt, coord)
	sameBroken(t, "straggler", rep.Broken, oracle.Broken)
}

// TestChaosFleetWorkerKills runs workers in waves, killing each wave
// mid-cell at a seeded deadline, until surviving waves finish the scan.
// Killed workers abandon their leases (no Fail report, no spill), the
// leases expire, and the cells are recomputed — findings must still be
// byte-identical to the oracle with every cell journaled exactly once.
func TestChaosFleetWorkerKills(t *testing.T) {
	r := rand.New(rand.NewSource(2007))
	for round := 0; round < chaosRounds(3); round++ {
		nats, _ := chaosCorpus(t, r, int64(9500+round))
		opt := chaosFleetOptions(r)
		oracle, err := attack.Run(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := attack.JournalHeader(nats, opt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "kills.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Header: hdr, LeaseTTL: 20 * time.Millisecond, Journal: w, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lb := fleet.NewLoopback(coord)

		for wave := 0; !coord.Done(); wave++ {
			if wave > 100 {
				t.Fatalf("round %d: scan never finished", round)
			}
			wctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(10+r.Intn(40))*time.Millisecond)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					wcfg := opt.BulkConfig()
					wcfg.Metrics = obs.NewRegistry()
					_, werr := fleet.RunWorker(wctx, fleet.WorkerConfig{
						ID: fmt.Sprintf("wave%d-w%d", wave, i), Transport: lb, Moduli: nats, Config: wcfg,
						Backoff: fleet.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 20},
					})
					// Being killed is the point; anything else (integrity,
					// fingerprint) is a real failure.
					if werr != nil && !errors.Is(werr, context.DeadlineExceeded) && !errors.Is(werr, context.Canceled) {
						t.Errorf("wave %d worker %d: %v", wave, i, werr)
					}
				}(i)
			}
			wg.Wait()
			cancel()
		}

		rep := assembleFleet(t, nats, opt, coord)
		sameBroken(t, "worker kills", rep.Broken, oracle.Broken)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		assertFleetJournal(t, path, hdr, 0)
	}
}
