package bulk

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/umm"
)

// TestAllPairsBlockDecomposition verifies the Section VI kernel structure:
// over all blocks, every unordered pair of modulus indices is visited
// exactly once, for several (m, r) shapes including partial final groups.
func TestAllPairsBlockDecomposition(t *testing.T) {
	for _, c := range []struct{ m, r int }{
		{2, 1}, {4, 2}, {16, 4}, {16, 16}, {17, 4}, {100, 7}, {64, 64}, {9, 1},
	} {
		sched, err := NewSchedule(c.m, c.r)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int]int{}
		for _, blk := range sched.Blocks() {
			sched.BlockPairs(blk, func(a, b int) {
				if a == b {
					t.Fatalf("m=%d r=%d: self pair (%d,%d)", c.m, c.r, a, b)
				}
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				seen[[2]int{lo, hi}]++
			})
		}
		want := int(sched.TotalPairs())
		if len(seen) != want {
			t.Fatalf("m=%d r=%d: %d distinct pairs, want %d", c.m, c.r, len(seen), want)
		}
		for pair, n := range seen {
			if n != 1 {
				t.Fatalf("m=%d r=%d: pair %v visited %d times", c.m, c.r, pair, n)
			}
		}
		// Idle blocks (I > J) contribute nothing.
		count := 0
		sched.BlockPairs(Block{I: 1, J: 0}, func(a, b int) { count++ })
		if count != 0 {
			t.Fatalf("idle block computed %d pairs", count)
		}
	}
}

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(1, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := NewSchedule(10, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := NewSchedule(10, 11); err == nil {
		t.Error("r>m accepted")
	}
}

// corpus returns a deterministic weak corpus for attack tests.
func corpus(t testing.TB, count, bits, weak int, seed int64) *rsakey.Corpus {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: bits, WeakPairs: weak, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAllPairsFindsPlantedFactors is the end-to-end attack property: the
// bulk all-pairs run finds exactly the planted weak pairs, for every
// algorithm and both terminate modes.
func TestAllPairsFindsPlantedFactors(t *testing.T) {
	c := corpus(t, 24, 128, 4, 11)
	for _, alg := range gcd.Algorithms {
		for _, early := range []bool{false, true} {
			res, err := AllPairs(c.Moduli(), Config{Algorithm: alg, Early: early, GroupSize: 5})
			if err != nil {
				t.Fatal(err)
			}
			if res.Pairs != 24*23/2 {
				t.Fatalf("%v: computed %d pairs", alg, res.Pairs)
			}
			if len(res.Factors) != len(c.Planted) {
				t.Fatalf("%v early=%v: found %d factors, want %d", alg, early, len(res.Factors), len(c.Planted))
			}
			want := map[[2]int]*big.Int{}
			for _, pp := range c.Planted {
				want[[2]int{pp.I, pp.J}] = pp.P
			}
			for _, f := range res.Factors {
				p, ok := want[[2]int{f.I, f.J}]
				if !ok {
					t.Fatalf("%v: unexpected factor at pair (%d,%d)", alg, f.I, f.J)
				}
				if f.P.ToBig().Cmp(p) != 0 {
					t.Fatalf("%v: factor at (%d,%d) value mismatch", alg, f.I, f.J)
				}
			}
		}
	}
}

// TestWorkersCountsPoolActuallyUsed: the pool never starts more workers
// than there are units, so a one-block all-pairs run and a one-cell
// hybrid run asked for 4 workers report 1, in Result.Workers and in the
// bulk_workers gauge alike, while a ten-block run reports all 4.
func TestWorkersCountsPoolActuallyUsed(t *testing.T) {
	ms := corpus(t, 12, 64, 1, 31).Moduli()
	for _, tc := range []struct {
		name string
		run  func([]*mpnat.Nat, Config) (*Result, error)
		cfg  Config
		want int
	}{
		{"pairs/one-block", AllPairs, Config{GroupSize: 12}, 1},
		{"hybrid/one-cell", Hybrid, Config{TileSize: 16}, 1},
		{"pairs/ten-blocks", AllPairs, Config{GroupSize: 3}, 4},
	} {
		reg := obs.NewRegistry()
		cfg := tc.cfg
		cfg.Config = engine.Config{Workers: 4, Metrics: reg}
		cfg.Algorithm = gcd.Approximate
		res, err := tc.run(ms, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reg.Snapshot().Gauges["bulk_workers"]; res.Workers != tc.want || got != float64(tc.want) {
			t.Errorf("%s: Workers = %d, bulk_workers = %v, want %d", tc.name, res.Workers, got, tc.want)
		}
	}
}

// TestAllPairsMatchesSequential checks the parallel executor against the
// single-worker oracle for factors and aggregate statistics. Both pin
// the scalar kernel, whose per-pair statistics do not depend on which
// pairs share a lockstep batch.
func TestAllPairsMatchesSequential(t *testing.T) {
	c := corpus(t, 30, 64, 3, 12)
	seq, err := Sequential(c.Moduli(), gcd.Approximate, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AllPairs(c.Moduli(), Config{
		Config: engine.Config{Workers: 4}, Algorithm: gcd.Approximate, GroupSize: 4,
		Kernel: engine.KernelScalar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Pairs != par.Pairs {
		t.Fatalf("pair counts differ: %d vs %d", seq.Pairs, par.Pairs)
	}
	if seq.Stats.Iterations != par.Stats.Iterations || seq.Stats.MemOps != par.Stats.MemOps {
		t.Fatalf("stats differ: %+v vs %+v", seq.Stats, par.Stats)
	}
	if len(seq.Factors) != len(par.Factors) {
		t.Fatalf("factor counts differ")
	}
	for i := range seq.Factors {
		if seq.Factors[i] != par.Factors[i] && seq.Factors[i].P.Cmp(par.Factors[i].P) != 0 {
			t.Fatalf("factor %d differs", i)
		}
	}
}

// TestAllPairsDuplicateModulus covers the duplicate-key case: gcd = n.
func TestAllPairsDuplicateModulus(t *testing.T) {
	c := corpus(t, 6, 64, 0, 13)
	moduli := c.Moduli()
	moduli = append(moduli, moduli[2]) // duplicate key
	res, err := AllPairs(moduli, Config{Algorithm: gcd.Approximate})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != 1 {
		t.Fatalf("found %d factors, want 1", len(res.Factors))
	}
	f := res.Factors[0]
	if f.I != 2 || f.J != 6 || f.P.Cmp(moduli[2]) != 0 {
		t.Fatalf("duplicate not detected correctly: %+v", f)
	}
}

func TestAllPairsValidation(t *testing.T) {
	odd := mpnat.New(15)
	if _, err := AllPairs([]*mpnat.Nat{odd}, Config{}); err == nil {
		t.Error("single modulus accepted")
	}
	if _, err := AllPairs([]*mpnat.Nat{odd, mpnat.New(4)}, Config{}); err == nil {
		t.Error("even modulus accepted")
	}
	if _, err := AllPairs([]*mpnat.Nat{odd, &mpnat.Nat{}}, Config{}); err == nil {
		t.Error("zero modulus accepted")
	}
}

// TestAllPairsProgress asserts the engine.Config.Progress contract at
// every pool size and on both kernels: done strictly increases (stale
// concurrent updates are dropped, so no call count is promised) and ends
// at the pair total.
func TestAllPairsProgress(t *testing.T) {
	for _, alg := range []gcd.Algorithm{gcd.FastBinary, gcd.Approximate} {
		for _, w := range []int{1, 4} {
			testAllPairsProgress(t, alg, w)
		}
	}
}

func testAllPairsProgress(t *testing.T, alg gcd.Algorithm, workers int) {
	c := corpus(t, 12, 64, 0, 14)
	var mu sync.Mutex
	var last int64
	res, err := AllPairs(c.Moduli(), Config{
		Algorithm: alg,
		GroupSize: 3,
		Config: engine.Config{Workers: workers, Progress: func(done, total int64) {
			mu.Lock()
			if done <= last {
				t.Errorf("%v workers=%d: done went %d -> %d, want strictly increasing", alg, workers, last, done)
			}
			last = done
			if total != 66 {
				t.Errorf("total = %d, want 66", total)
			}
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != res.Pairs {
		t.Errorf("final progress %d != pairs %d", last, res.Pairs)
	}
	if res.PairsPerSecond() <= 0 {
		t.Error("throughput not positive")
	}
}

func randOddNat(r *rand.Rand, bits int) *mpnat.Nat {
	v := new(big.Int)
	for v.BitLen() < bits {
		v.Lsh(v, 32)
		v.Or(v, new(big.Int).SetUint64(uint64(r.Uint32())))
	}
	v.Rsh(v, uint(v.BitLen()-bits))
	v.SetBit(v, bits-1, 1)
	v.SetBit(v, 0, 1)
	return mpnat.FromBig(v)
}

// TestShapeProgramAddressStream pins the address stream of a tiny shape
// trace: a 2-word full pass with swap, then a 1-word halve-X on the
// swapped arena.
func TestShapeProgramAddressStream(t *testing.T) {
	shapes := []gcd.IterShape{
		{LX: 2, LY: 1, Branch: gcd.BranchFull, Swapped: true},
		{LX: 1, LY: 1, Branch: gcd.BranchHalveX},
	}
	const (
		p     = 4
		j     = 1
		words = 2
	)
	prog := ShapeProgram(shapes, p, j, words)
	// Arena 0 rows 0..1, arena 1 rows 2..3; addr = row*4 + 1.
	want := []int64{
		// Full pass, X = arena 0, Y = arena 1:
		0*4 + 1, 2*4 + 1, 0*4 + 1, // x0 r, y0 r, x0 w
		1*4 + 1, 1*4 + 1, // x1 r, x1 w (ly=1: no y1)
		// After swap X = arena 1; halve-X touches row 2.
		2*4 + 1, 2*4 + 1,
	}
	var got []int64
	for {
		a, ok := prog.Next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) != len(want) {
		t.Fatalf("stream length %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addr %d = %d, want %d (full stream %v)", i, got[i], want[i], got)
		}
	}
}

// TestShapeProgramExtraY checks the beta > 0 replay appends a Y read pass.
func TestShapeProgramExtraY(t *testing.T) {
	shapes := []gcd.IterShape{{LX: 1, LY: 1, Branch: gcd.BranchFull, ExtraY: true}}
	prog := ShapeProgram(shapes, 1, 0, 1)
	var got []int64
	for {
		a, ok := prog.Next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	// x0 r (row 0), y0 r (row 1), x0 w (row 0), extra y pass (row 1).
	want := []int64{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSimulateIdenticalThreadsFullyCoalesced: when every thread computes
// the same pair, the bulk execution is exactly oblivious, so the UMM run
// must be fully coalesced and match Theorem 1's closed form.
func TestSimulateIdenticalThreadsFullyCoalesced(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	x := randOddNat(r, 256)
	y := randOddNat(r, 256)
	const p = 32
	xs := make([]*mpnat.Nat, p)
	ys := make([]*mpnat.Nat, p)
	for i := range xs {
		xs[i], ys[i] = x, y
	}
	m, _ := umm.New(8, 16)
	res, err := Simulate(m, gcd.Approximate, xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.UMM.CoalescedFraction(); f != 1.0 {
		t.Fatalf("identical-thread bulk not fully coalesced: %v", f)
	}
	perThreadOps := res.UMM.Accesses / p
	if want := m.ObliviousTime(p, perThreadOps); res.UMM.Time != want {
		t.Fatalf("time %d, Theorem 1 says %d", res.UMM.Time, want)
	}
}

// TestSimulateSemiOblivious: with independent random pairs the bulk
// execution of Approximate is semi-oblivious - mostly coalesced but not
// entirely. The coalesced fraction must stay high while not reaching 1.
func TestSimulateSemiOblivious(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const p = 32
	xs := make([]*mpnat.Nat, p)
	ys := make([]*mpnat.Nat, p)
	for i := range xs {
		xs[i] = randOddNat(r, 256)
		ys[i] = randOddNat(r, 256)
	}
	m, _ := umm.New(8, 16)
	res, err := Simulate(m, gcd.Approximate, xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	f := res.UMM.CoalescedFraction()
	if f >= 1.0 {
		t.Fatalf("independent inputs cannot be fully coalesced (%v)", f)
	}
	if f < 0.05 {
		t.Fatalf("coalesced fraction %v implausibly low for semi-oblivious execution", f)
	}
	if res.Stats.Iterations == 0 || res.TimePerGCD <= 0 {
		t.Fatalf("missing stats: %+v", res)
	}
}

// TestSimulateEarlyCheaper: early termination must reduce simulated time.
func TestSimulateEarlyCheaper(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const p = 16
	xs := make([]*mpnat.Nat, p)
	ys := make([]*mpnat.Nat, p)
	for i := range xs {
		xs[i] = randOddNat(r, 256)
		ys[i] = randOddNat(r, 256)
	}
	m, _ := umm.New(8, 16)
	full, err := Simulate(m, gcd.Approximate, xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	early, err := Simulate(m, gcd.Approximate, xs, ys, true)
	if err != nil {
		t.Fatal(err)
	}
	if early.UMM.Time >= full.UMM.Time {
		t.Fatalf("early (%d) not cheaper than full (%d)", early.UMM.Time, full.UMM.Time)
	}
}

// TestSimulateAlgorithmRanking: on the UMM the paper's ranking must hold:
// Approximate beats FastBinary beats Binary in simulated time per GCD.
func TestSimulateAlgorithmRanking(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const p = 16
	xs := make([]*mpnat.Nat, p)
	ys := make([]*mpnat.Nat, p)
	for i := range xs {
		xs[i] = randOddNat(r, 512)
		ys[i] = randOddNat(r, 512)
	}
	m, _ := umm.New(32, 64)
	times := map[gcd.Algorithm]float64{}
	for _, alg := range []gcd.Algorithm{gcd.Binary, gcd.FastBinary, gcd.Approximate} {
		res, err := Simulate(m, alg, xs, ys, true)
		if err != nil {
			t.Fatal(err)
		}
		times[alg] = res.TimePerGCD
	}
	if !(times[gcd.Approximate] < times[gcd.FastBinary] && times[gcd.FastBinary] < times[gcd.Binary]) {
		t.Fatalf("UMM ranking violated: E=%.0f D=%.0f C=%.0f",
			times[gcd.Approximate], times[gcd.FastBinary], times[gcd.Binary])
	}
}

func TestSimulateValidation(t *testing.T) {
	m, _ := umm.New(4, 4)
	odd := mpnat.New(15)
	if _, err := Simulate(m, gcd.Approximate, nil, nil, false); err == nil {
		t.Error("empty slices accepted")
	}
	if _, err := Simulate(m, gcd.Approximate, []*mpnat.Nat{odd}, []*mpnat.Nat{odd, odd}, false); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Simulate(m, gcd.Approximate, []*mpnat.Nat{mpnat.New(4)}, []*mpnat.Nat{odd}, false); err == nil {
		t.Error("even operand accepted")
	}
}

func BenchmarkAllPairs128x512(b *testing.B) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 128, Bits: 512, Seed: 1, Pseudo: true})
	if err != nil {
		b.Fatal(err)
	}
	moduli := c.Moduli()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllPairs(moduli, Config{Algorithm: gcd.Approximate, Early: true}); err != nil {
			b.Fatal(err)
		}
	}
}
