// Package attack is the weak-RSA-key attack pipeline: it runs the bulk
// all-pairs GCD over a corpus of moduli, interprets every non-trivial GCD,
// and reconstructs the broken private keys - the complete workflow the
// paper motivates ("we may break weak RSA keys by computing the GCDs of
// all pairs of two moduli in the Web").
package attack

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/bulk"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/rsakey"
)

// Options configures an attack run. The cross-engine surface (Workers,
// Progress, Metrics, Trace, Checkpoint/Resume, Fault) is the embedded
// engine.Config; Progress counts pairs for the pairs and hybrid engines
// and tree operations for batch GCD. Checkpoint/Resume require the
// pairs or hybrid engine.
type Options struct {
	engine.Config

	// Algorithm selects the GCD kernel; the default (zero value requires
	// explicit choice, so Run defaults to Approximate when unset via
	// DefaultOptions) is the paper's Approximate Euclidean.
	Algorithm gcd.Algorithm

	// Early enables s/2 early termination (on by default in
	// DefaultOptions; it halves the work). It misses every shared prime
	// below s/2 bits, s the smaller modulus size of a pair, so it is
	// exact only for moduli whose primes all have at least s/2 bits,
	// such as balanced two-prime RSA moduli.
	Early bool

	// GroupSize is passed to the pairs engine only (the paper's r).
	GroupSize int

	// Exponent is the public exponent for private-key recovery.
	Exponent uint64

	// Engine selects the attack engine: engine.Pairs (default) is the
	// paper's all-pairs computation, engine.Batch the Bernstein
	// product-tree baseline (Algorithm, Early and GroupSize are ignored
	// there), engine.Hybrid the tiled product-filter engine.
	Engine engine.Kind

	// Quarantine makes the pairs and hybrid engines skip zero/even moduli
	// and report them per-index in Report.Quarantined instead of failing
	// the whole run. The batch engine rejects it: the product tree has no
	// way to excise an input.
	Quarantine bool

	// TileSize is the hybrid engine's tile width; 0 means 64. Findings
	// are identical at every value.
	TileSize int

	// Kernel is the reference override of the per-pair executor (see
	// bulk.Config.Kernel). The zero value lets the executor follow the
	// algorithm — the lane kernel for Approximate — and is what every
	// production path uses; engine.KernelScalar pins the scalar kernel.
	Kernel engine.KernelKind
}

// bulkConfig maps the Options onto the bulk engines' configuration.
func (o Options) bulkConfig() bulk.Config {
	return bulk.Config{
		Config:     o.Config,
		Algorithm:  o.Algorithm,
		Early:      o.Early,
		GroupSize:  o.GroupSize,
		Quarantine: o.Quarantine,
		TileSize:   o.TileSize,
		Kernel:     o.Kernel,
	}
}

// DefaultOptions returns the recommended configuration: Approximate
// Euclidean with early termination and e = 65537.
func DefaultOptions() Options {
	return Options{
		Algorithm: gcd.Approximate,
		Early:     true,
		Exponent:  rsakey.DefaultExponent,
	}
}

// BrokenKey is one factored modulus.
type BrokenKey struct {
	// Index is the modulus position in the input corpus.
	Index int
	// N is the modulus.
	N *big.Int
	// P and Q are the recovered factors, P <= Q.
	P, Q *big.Int
	// D is the recovered private exponent, set only when P and Q are two
	// distinct values that pass IsPrime and e is invertible mod
	// (P-1)(Q-1). A composite factor (synthetic pseudo-moduli, moduli of
	// three or more primes) and n = p² get none.
	D *big.Int
	// FoundWith is the index of the other modulus of the revealing pair,
	// or -1 when the batch-GCD engine found the factor (it has no notion
	// of a revealing pair).
	FoundWith int
}

// Report is the attack outcome.
type Report struct {
	// Broken lists factored keys ordered by Index (one entry per modulus,
	// even when several pairs reveal it).
	Broken []BrokenKey
	// Duplicates lists pairs of identical moduli (gcd = modulus), which
	// are compromised but not factored by the GCD attack.
	Duplicates [][2]int
	// Bulk carries the underlying bulk-run measurements.
	Bulk *bulk.Result
	// Moduli is the corpus size.
	Moduli int
	// Canceled reports that the run was interrupted: Broken/Duplicates
	// cover only the completed work units.
	Canceled bool
	// BadPairs lists pair computations quarantined after a worker panic.
	BadPairs []bulk.BadPair
	// Quarantined lists input moduli skipped under Options.Quarantine.
	Quarantined []bulk.Quarantined
}

// Run executes the attack over the corpus.
func Run(moduli []*mpnat.Nat, opt Options) (*Report, error) {
	return RunContext(context.Background(), moduli, opt)
}

// RunContext is Run with cooperative cancellation: on cancel the report
// covers the completed work units and Report.Canceled is set.
func RunContext(ctx context.Context, moduli []*mpnat.Nat, opt Options) (*Report, error) {
	if opt.Exponent == 0 {
		opt.Exponent = rsakey.DefaultExponent
	}
	var res *bulk.Result
	var err error
	switch opt.Engine {
	case engine.Batch:
		return runBatch(ctx, moduli, opt)
	case engine.Hybrid:
		res, err = bulk.HybridContext(ctx, moduli, opt.bulkConfig())
	case engine.Pairs:
		res, err = bulk.AllPairsContext(ctx, moduli, opt.bulkConfig())
	default:
		return nil, fmt.Errorf("attack: unknown engine %v", opt.Engine)
	}
	if err != nil {
		return nil, err
	}
	return interpretFactors(moduli, res, opt)
}

// JournalHeader returns the checkpoint header an all-pairs attack over
// this corpus writes, for verifying a journal before resuming.
func JournalHeader(moduli []*mpnat.Nat, opt Options) (checkpoint.Header, error) {
	switch opt.Engine {
	case engine.Batch:
		return checkpoint.Header{}, fmt.Errorf("attack: checkpointing requires the pairs or hybrid engine")
	case engine.Hybrid:
		return bulk.HybridJournalHeader(moduli, opt.bulkConfig())
	default:
		return bulk.JournalHeader(moduli, opt.bulkConfig())
	}
}

// interpretFactors turns raw pair factors into the attack report:
// duplicates detected, moduli factored, private keys recovered. The task
// list is built serially in Factors order, so each key is credited to the
// first pair that reveals it (FoundWith); the keys are then factored in
// parallel.
func interpretFactors(moduli []*mpnat.Nat, res *bulk.Result, opt Options) (*Report, error) {
	rep := &Report{
		Bulk:        res,
		Moduli:      len(moduli),
		Canceled:    res.Canceled,
		BadPairs:    res.BadPairs,
		Quarantined: res.Quarantined,
	}
	claimed := map[int]bool{}
	var tasks []keyTask
	for _, f := range res.Factors {
		if f.P.Cmp(moduli[f.I]) == 0 && f.P.Cmp(moduli[f.J]) == 0 {
			rep.Duplicates = append(rep.Duplicates, [2]int{f.I, f.J})
			continue
		}
		var g *big.Int
		for _, side := range [2][2]int{{f.I, f.J}, {f.J, f.I}} {
			idx, other := side[0], side[1]
			// g equal to this modulus factors only the other side.
			if claimed[idx] || f.P.Cmp(moduli[idx]) >= 0 {
				continue
			}
			if g == nil {
				g = f.P.ToBig()
			}
			claimed[idx] = true
			tasks = append(tasks, keyTask{idx: idx, other: other, n: moduli[idx].ToBig(), g: g})
		}
	}
	broken, err := factorKeys(tasks, opt)
	if err != nil {
		return nil, err
	}
	rep.Broken = broken
	sort.Slice(rep.Broken, func(i, j int) bool { return rep.Broken[i].Index < rep.Broken[j].Index })
	recordOutcome(opt, rep)
	return rep, nil
}

// recordOutcome folds the attack-level verdict into the metrics
// registry (nil-safe: a disabled registry hands out nil counters).
func recordOutcome(opt Options, rep *Report) {
	opt.Metrics.Counter("attack_broken_keys_total").Add(int64(len(rep.Broken)))
	opt.Metrics.Counter("attack_duplicate_pairs_total").Add(int64(len(rep.Duplicates)))
}

// runBatch is the batch-GCD (product/remainder tree) variant of the
// attack: same Report, different engine. Findings whose gcd equals the
// whole modulus resolve to duplicates; proper divisors factor the key.
func runBatch(ctx context.Context, moduli []*mpnat.Nat, opt Options) (*Report, error) {
	if opt.Checkpoint != nil || opt.Resume != nil {
		return nil, fmt.Errorf("attack: checkpointing requires the pairs or hybrid engine")
	}
	if opt.Quarantine {
		return nil, fmt.Errorf("attack: quarantine requires the pairs or hybrid engine")
	}
	if len(moduli) < 2 {
		return nil, fmt.Errorf("attack: need at least 2 moduli, got %d", len(moduli))
	}
	big_ := make([]*big.Int, len(moduli))
	for i, m := range moduli {
		if m == nil || m.IsZero() {
			return nil, fmt.Errorf("attack: modulus %d is zero", i)
		}
		big_[i] = m.ToBig()
	}
	cfg := batchgcd.Config{Config: opt.Config}
	start := time.Now()
	findings, err := batchgcd.RunContext(ctx, big_, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Moduli: len(moduli),
		// The leaf pass, one unit per modulus, is the widest pool.
		Bulk: &bulk.Result{Elapsed: time.Since(start), Workers: min(cfg.EffectiveWorkers(), len(moduli))},
	}
	// A finding records only its smallest duplicate partner, so regroup
	// identical moduli into classes and emit every pair within a class,
	// matching what the all-pairs engine reports for the same corpus.
	dupClass := map[string][]int{}
	var tasks []keyTask
	for _, f := range findings {
		n := big_[f.Index]
		if f.Factor.Cmp(n) < 0 {
			tasks = append(tasks, keyTask{idx: f.Index, other: -1, n: n, g: f.Factor})
		}
		if f.DuplicateOf >= 0 {
			key := n.Text(16)
			dupClass[key] = append(dupClass[key], f.Index)
		}
	}
	if rep.Broken, err = factorKeys(tasks, opt); err != nil {
		return nil, err
	}
	for _, class := range dupClass {
		for a := 0; a < len(class); a++ {
			for b := a + 1; b < len(class); b++ {
				rep.Duplicates = append(rep.Duplicates, [2]int{class[a], class[b]})
			}
		}
	}
	sort.Slice(rep.Broken, func(i, j int) bool { return rep.Broken[i].Index < rep.Broken[j].Index })
	sort.Slice(rep.Duplicates, func(i, j int) bool {
		if rep.Duplicates[i][0] != rep.Duplicates[j][0] {
			return rep.Duplicates[i][0] < rep.Duplicates[j][0]
		}
		return rep.Duplicates[i][1] < rep.Duplicates[j][1]
	})
	recordOutcome(opt, rep)
	return rep, nil
}

// keyTask is one modulus to factor: n_idx with the proper divisor g
// revealed by its pair with modulus other (-1 under batch GCD).
type keyTask struct {
	idx, other int
	n, g       *big.Int
}

// factorKeys factors every task and returns the keys in task order, in
// three steps. A serial pass splits each modulus into P <= Q and collects
// the distinct factor values; one pool task per distinct value runs
// IsPrime, so the prime of an m-member cluster is tested once, not m
// times; a serial pass then recovers D for every key whose factors are
// two distinct primes. A failure returns the first failing task's
// error, exactly as a serial loop would.
func factorKeys(tasks []keyTask, opt Options) ([]BrokenKey, error) {
	keys := make([]BrokenKey, len(tasks))
	slots := make([][2]int, len(tasks)) // indices of P and Q in values
	slotOf := map[string]int{}
	var values []*big.Int
	for i, t := range tasks {
		q, rem := new(big.Int).QuoRem(t.n, t.g, new(big.Int))
		if rem.Sign() != 0 {
			return nil, fmt.Errorf("attack: modulus %d: gcd %v does not divide modulus", t.idx, t.g)
		}
		p := new(big.Int).Set(t.g) // g may be shared by both keys of a pair
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		keys[i] = BrokenKey{Index: t.idx, N: t.n, P: p, Q: q, FoundWith: t.other}
		for k, v := range [2]*big.Int{p, q} {
			key := string(v.Bytes())
			if _, ok := slotOf[key]; !ok {
				slotOf[key] = len(values)
				values = append(values, v)
			}
			slots[i][k] = slotOf[key]
		}
	}
	prime := make([]bool, len(values))
	engine.Run(context.Background(), len(values), engine.PoolOptions{Workers: opt.EffectiveWorkers()}, func(i, _ int) {
		prime[i] = IsPrime(values[i])
	})
	for i := range keys {
		bk := &keys[i]
		if !prime[slots[i][0]] || !prime[slots[i][1]] {
			continue
		}
		// RecoverPrivate refuses P == Q and an e not invertible mod phi.
		if d, _, err := rsakey.RecoverPrivate(bk.N, bk.P, opt.Exponent); err == nil {
			bk.D = d
		}
	}
	return keys, nil
}

// IsPrime is the attack's primality test: a key's D is recovered only
// when both of its factors pass it. It is Baillie–PSW alone
// (ProbablyPrime(0)), which Go documents as exact below 2^64 and for
// which no counterexample is known above; like every test math/big
// offers, it is not documented as safe against input crafted to fool
// it. DESIGN 5j records why it was chosen.
func IsPrime(v *big.Int) bool { return v.ProbablyPrime(0) }
