package main

import (
	"bytes"
	"context"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bulkgcd"
)

const (
	probeReps     = 3   // repetitions per probe; the median is reported
	probePairKeys = 128 // keys in the gcd, pairs, lanes and engine probes
	probeKeys     = 256 // keys in the hybrid and registry probes
	probeGCDs     = 2048
	probeSingles  = 32 // one-key registry submits after the batch seed
	fsyncSamples  = 32
)

// runProbes measures each layer on operands drawn from the workload's
// own corpus, so that every workload reports every layer at its own key
// size and sharing density. Every engine report and registry verdict is
// checked against the truth like a timed op. Times are normalised by a
// sentinel sample taken before each repetition, except fsync, which
// measures the disk rather than the CPU.
func runProbes(ctx context.Context, c config, cs *corpusSet, o *outcome) error {
	m := o.metrics
	p := &prober{ctx: ctx, cs: cs, o: o}

	var parse []float64
	for i := 0; i < probeReps; i++ {
		k := p.calib(1)
		start := time.Now()
		b, err := os.ReadFile(cs.corpusPath())
		if err != nil {
			return err
		}
		if _, err := bulkgcd.ReadCorpus(bytes.NewReader(b)); err != nil {
			return err
		}
		parse = append(parse, sinceS(start)*k)
	}
	m["corpus.parse_ms"] = sample("ms", parse, 1000)

	small := probeSample(cs.Truth, len(cs.Moduli), probePairKeys)
	ns, iters := p.gcds(small)
	m["gcd.ns_per_pair"] = sample("ns", ns, 1)
	m["gcd.iters_per_pair"] = single("count", iters)

	all := runtime.GOMAXPROCS(0)
	scalar := p.engine("pairs", 1, small, bulkgcd.WithKernel(bulkgcd.KernelScalar), bulkgcd.WithWorkers(1))
	m["bulk.pairs_ns_per_pair"] = sample("ns", column(scalar, "ns_per_pair"), 1)
	lanes := p.engine("lanes", 1, small, bulkgcd.WithKernel(bulkgcd.KernelLanes), bulkgcd.WithWorkers(1))
	m["lanes.ns_per_pair"] = sample("ns", column(lanes, "ns_per_pair"), 1)
	m["lanes.occupancy"] = sample("frac", column(lanes, "bulk_lanes_occupancy"), 1)
	pool := p.engine("engine", all, small)
	m["engine.busy_frac"] = sample("frac", column(pool, "busy_frac"), 1)
	m["engine.steals"] = sample("count", column(pool, "engine_steals_total"), 1)

	mid := probeSample(cs.Truth, len(cs.Moduli), probeKeys)
	hyb := p.engine("hybrid", all, mid, bulkgcd.WithEngine(bulkgcd.EngineHybrid))
	m["bulk.hybrid_ns_per_pair"] = sample("ns", column(hyb, "ns_per_pair"), 1)
	m["bulk.hybrid_skip_frac"] = sample("frac", column(hyb, "skip_frac"), 1)
	m["bulk.hybrid_filter_ms"] = sample("ms", column(hyb, "filter_s"), 1000)
	m["bulk.hybrid_descended_pairs"] = sample("count", column(hyb, "bulk_hybrid_descended_pairs_total"), 1)
	m["bulk.subprod_cache_hit_frac"] = sample("frac", column(hyb, "cache_hit_frac"), 1)

	every := make([]int, len(cs.Moduli))
	for i := range every {
		every[i] = i
	}
	batch := p.engine("batch", all, every, bulkgcd.WithEngine(bulkgcd.EngineBatch))
	m["batchgcd.engine_ms"] = sample("ms", column(batch, "engine_s"), 1000)
	m["batchgcd.product_ms"] = sample("ms", column(batch, "product_s"), 1000)
	m["batchgcd.remainder_ms"] = sample("ms", column(batch, "remainder_s"), 1000)
	m["batchgcd.leaf_gcd_ms"] = sample("ms", column(batch, "leaf_s"), 1000)
	m["batchgcd.resolve_ms"] = sample("ms", column(batch, "resolve_s"), 1000)
	m["attack.interpret_ms_per_broken"] = sample("ms", column(batch, "interpret_s_per_broken"), 1000)

	if err := p.registry(filepath.Join(c.outDir, "registry-probe"), mid); err != nil {
		return err
	}

	fsyncs, err := fsyncTimes(filepath.Join(c.outDir, "fsync-probe"))
	if err != nil {
		return err
	}
	m["disk.fsync_us_p50"] = sample("us", fsyncs, 1e6)

	m["host.calib_ms_p50"] = sample("ms", o.calibMS, 1)
	m["host.calib_iqr_frac"] = single("frac", spread(o.calibMS))
	return nil
}

type prober struct {
	ctx context.Context
	cs  *corpusSet
	o   *outcome
}

// calib samples the sentinel on n goroutines and returns the
// normalisation factor for the interval that follows. The samples are
// not part of the run's drift record, which holds only the samples taken
// before the workload's own ops, all of one width.
func (p *prober) calib(n int) float64 {
	return sentinelRefMS / sentinel(n, sentinelIters)
}

// probeSample picks n keys (all keys if the corpus is smaller): whole
// clusters and duplicate pairs first, while they fill at most half the
// sample, then the lowest-indexed other keys. Indices come back sorted.
func probeSample(t *truth, total, n int) []int {
	if total <= n {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	in := map[int]bool{}
	special := map[int]bool{}
	add := func(ks ...int) {
		for _, k := range ks {
			special[k] = true
		}
		if len(in)+len(ks) <= n/2 {
			for _, k := range ks {
				in[k] = true
			}
		}
	}
	for _, c := range t.Clusters {
		add(c.Members...)
	}
	for _, d := range t.Duplicates {
		add(d[0], d[1])
	}
	for k := 0; k < total && len(in) < n; k++ {
		if !special[k] {
			in[k] = true
		}
	}
	out := make([]int, 0, len(in))
	for k := 0; k < total; k++ {
		if in[k] {
			out = append(out, k)
		}
	}
	return out
}

func (p *prober) moduli(idx []int) []*big.Int {
	out := make([]*big.Int, len(idx))
	for i, k := range idx {
		out[i] = p.cs.Moduli[k]
	}
	return out
}

// gcds times bulkgcd.GCDWith over up to probeGCDs pairs of the sample on
// one goroutine, probeReps times; it returns ns per pair per pass and the
// mean iteration count.
func (p *prober) gcds(idx []int) ([]float64, float64) {
	ms := p.moduli(idx)
	var pairs [][2]*big.Int
	for i := 0; i < len(ms) && len(pairs) < probeGCDs; i++ {
		for j := i + 1; j < len(ms) && len(pairs) < probeGCDs; j++ {
			pairs = append(pairs, [2]*big.Int{ms[i], ms[j]})
		}
	}
	var ns []float64
	iters := 0
	for r := 0; r < probeReps; r++ {
		iters = 0
		k := p.calib(1)
		start := time.Now()
		for _, pr := range pairs {
			_, st, err := bulkgcd.GCDWith(bulkgcd.Approximate, pr[0], pr[1])
			if err != nil {
				p.o.fail("gcd probe: %v", err)
				continue
			}
			iters += st.Iterations
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(pairs))*k)
	}
	return ns, float64(iters) / float64(len(pairs))
}

// engine runs the attack over the sample probeReps times with metrics and
// tracing on, normalising by the sentinel on as many goroutines as the
// run has workers. Per run it returns the engine's exported metrics (counters
// and gauges as exported) and derived values: normalised times, the
// batch engine's tree phases from its trace spans, and ratios.
func (p *prober) engine(name string, workers int, idx []int, opts ...bulkgcd.Option) []map[string]float64 {
	ms := p.moduli(idx)
	tr := p.cs.Truth.subset(idx)
	var runs []map[string]float64
	for r := 0; r < probeReps; r++ {
		k := p.calib(workers)
		var mbuf, tbuf bytes.Buffer
		start := time.Now()
		rep, err := bulkgcd.New(append(opts, bulkgcd.WithMetrics(&mbuf), bulkgcd.WithTrace(&tbuf))...).Run(p.ctx, ms)
		wall := sinceS(start)
		p.o.attempted++
		if err == nil {
			err = checkReport(tr, ms, rep)
		}
		var evs []programEvent
		if err == nil {
			evs, err = parseProgramTrace(tbuf.Bytes())
		}
		if err != nil {
			p.o.fail("%s probe: %v", name, err)
			continue
		}
		v := promValues(mbuf.Bytes())
		engineS := rep.Elapsed.Seconds()
		v["engine_s"] = engineS * k
		v["interpret_s_per_broken"] = (wall - engineS) * k / float64(max(tr.broken(), 1))
		v["filter_s"] = v["bulk_hybrid_filter_seconds_sum"] * k
		if rep.TotalPairs > 0 {
			v["ns_per_pair"] = engineS * 1e9 / float64(rep.TotalPairs) * k
			v["skip_frac"] = v["bulk_hybrid_skipped_pairs_total"] / float64(rep.TotalPairs)
		}
		if rep.Workers > 0 && engineS > 0 {
			v["busy_frac"] = v["engine_worker_busy_seconds_sum"] / (float64(rep.Workers) * engineS)
		}
		if look := v["bulk_subprod_cache_hits_total"] + v["bulk_subprod_cache_misses_total"]; look > 0 {
			v["cache_hit_frac"] = v["bulk_subprod_cache_hits_total"] / look
		}
		// The batch engine's tree levels and leaf pass are sequential
		// phase spans inside its run span; what the run span holds beyond
		// them is validation and resolving whole-modulus findings.
		var runS, phaseS float64
		for _, ev := range evs {
			d := ev.Time.Sub(*ev.Start).Seconds() * k
			switch ph, _ := ev.Attrs["phase"].(string); {
			case ev.Name == "run":
				runS += d
			case ev.Name == "phase" && ph != "":
				v[ph+"_s"] += d
				phaseS += d
			}
		}
		v["resolve_s"] = runS - phaseS
		runs = append(runs, v)
	}
	return runs
}

// registry seeds an in-process registry with most of the sample in one
// batch, then submits the rest one key at a time.
func (p *prober) registry(dir string, idx []int) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	ms := p.moduli(idx)
	singles := min(probeSingles, len(ms)/4)
	seed := ms[:len(ms)-singles]
	oracle := newRegistryOracle(p.cs.Truth.subset(idx), ms)
	var got []verdict
	reg, err := bulkgcd.OpenRegistry(dir)
	if err != nil {
		return err
	}
	record := func(key int, kv bulkgcd.KeyVerdict) {
		v := fromKeyVerdict(kv)
		if err := oracle.assign(v.Index, key); err != nil {
			p.o.fail("registry probe: %v", err)
			return
		}
		got = append(got, v)
	}
	p.o.attempted++
	k := p.calib(1)
	start := time.Now()
	vs, err := reg.SubmitBatch(seed)
	seedS := sinceS(start) * k
	if err != nil {
		p.o.fail("registry probe seed: %v", err)
	}
	for i, v := range vs {
		record(i, v)
	}
	k = p.calib(1)
	var submit []float64
	for i := len(seed); i < len(ms); i++ {
		p.o.attempted++
		start := time.Now()
		v, err := reg.Submit(ms[i])
		submit = append(submit, sinceS(start)*k)
		if err != nil {
			p.o.fail("registry probe submit: %v", err)
			continue
		}
		record(i, v)
	}
	st := reg.Stats()
	if err := reg.Close(); err != nil {
		p.o.fail("registry probe close: %v", err)
	}
	want, _, err := oracle.expect()
	if err != nil {
		p.o.fail("registry probe: %v", err)
	}
	for _, v := range got {
		if v.Index < len(want) && !sameVerdict(v, want[v.Index]) {
			p.o.fail("registry probe index %d: verdict %s, want %s", v.Index, v.Kind, want[v.Index].Kind)
		}
	}
	keys := float64(max(st.Keys, 1))
	m := p.o.metrics
	m["registry.seed_ms"] = single("ms", seedS*1000)
	m["registry.submit_ms_p50"] = sample("ms", submit, 1000)
	m["registry.spine_mults_per_key"] = single("count", float64(st.SpineMults)/keys)
	m["registry.store_bytes_per_key"] = single("B", float64(dirBytes(dir))/keys)
	return os.RemoveAll(dir)
}

// fsyncTimes appends 4 KiB to a file and syncs it, fsyncSamples times,
// returning the seconds each sync took: the floor under every durable
// registry submit on this filesystem.
func fsyncTimes(path string) ([]float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	block := bytes.Repeat([]byte{'x'}, 4096)
	var out []float64
	for i := 0; i < fsyncSamples; i++ {
		if _, err := f.Write(block); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, sinceS(start))
	}
	return out, nil
}

// promValues reads the unlabelled samples of a Prometheus text
// exposition (counters, gauges, histogram _sum and _count).
func promValues(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			out[name] = v
		}
	}
	return out
}

// column extracts one value from each run; a metric the program did not
// export reads as zero, as an absent Prometheus counter does.
func column(runs []map[string]float64, key string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[key]
	}
	return out
}
