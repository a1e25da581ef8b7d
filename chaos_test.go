package bulkgcd

// Chaos suite: deterministic fault-injection campaigns over the full
// attack stack. Each round builds a weak corpus, computes an oracle with
// an uninterrupted run, then kills, panics, or resumes a journaled run at
// seeded points and asserts the surviving findings match the oracle.
// Unlike the soak tests, these stay enabled under -short (with reduced
// rounds) so the CI chaos job covers them under the race detector.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"bulkgcd/internal/attack"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/mpnat"
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
