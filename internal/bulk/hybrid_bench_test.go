package bulk

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// BenchmarkHybrid measures the tiled product-filter engine on a
// 4096-moduli 512-bit planted corpus (512 moduli under -short), across
// tile widths. Unlike BenchmarkBatchGCD's pseudo corpus this one uses
// real semiprimes: pseudo moduli are plain random odd values whose
// ubiquitous shared small primes make almost every row a legitimate
// filter hit, while the filter's selectivity — the whole point of the
// engine — shows only on RSA-structured (pairwise coprime outside the
// planted pairs) inputs. Alongside wall-clock it reports the two counts
// that justify the engine: full per-pair GCD descents (via the
// gcd.Metrics iteration histogram, which the filter GCDs bypass) and
// filter GCDs, and it fails outright if the filter does not cut full
// GCD invocations at least 3x below the all-pairs schedule — the
// soundness-preserving speedup the design claims.
func BenchmarkHybrid(b *testing.B) {
	count := 4096
	if testing.Short() {
		count = 512
	}
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: 512, WeakPairs: 8, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ms := c.Moduli()
	totalPairs := int64(count) * int64(count-1) / 2

	var refFactors []string
	for _, tile := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			b.ReportAllocs()
			var descended, filters float64
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				res, err := Hybrid(ms, Config{
					Config:    engine.Config{Workers: 8, Metrics: reg},
					Algorithm: gcd.Approximate, Early: true, TileSize: tile,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Pairs != totalPairs {
					b.Fatalf("covered %d of %d pairs", res.Pairs, totalPairs)
				}
				// Findings must be identical at every tile width.
				keys := factorKeys(res.Factors)
				if refFactors == nil {
					refFactors = keys
					if len(keys) != len(c.Planted) {
						b.Fatalf("found %d factors, planted %d", len(keys), len(c.Planted))
					}
				} else if fmt.Sprint(keys) != fmt.Sprint(refFactors) {
					b.Fatalf("tile=%d: factors diverge from the first tile size", tile)
				}
				snap := reg.Snapshot()
				d := snap.Histograms[gcd.IterationsMetric(gcd.Approximate)].Count
				if int64(d)*3 > totalPairs {
					b.Fatalf("filter too weak: %d full GCDs for %d pairs (need at least 3x fewer)", d, totalPairs)
				}
				descended += float64(d)
				filters += float64(snap.Counters["bulk_hybrid_filter_gcds_total"])
			}
			b.ReportMetric(descended/float64(b.N), "descents/op")
			b.ReportMetric(filters/float64(b.N), "filters/op")
			b.ReportMetric(float64(totalPairs), "pairs/op")
		})
	}
}

// BenchmarkHybridTraceOverhead enforces the tracing budget: the hybrid
// engine's cells with a live tracer (serializing every span and event
// to io.Discard) must stay within 2% of the identical Trace=nil cells.
// Tracing is one span per cell plus rare point events — never per-pair
// work — so its cost is a fixed few microseconds per cell that must
// amortize over the cell's rows and pairs; this guard keeps future
// instrumentation honest about that (it already caught the original
// emission path, which ran encoding/json's reflective marshal under the
// writer mutex, and the attrs map every span built before the
// map-free encoder).
//
// Methodology, chosen so a shared machine cannot decide the verdict.
// Whole runs (about 8 ms here) were too coarse: this corpus's runs vary
// by ±10% from one run to the next on a shared 2-vCPU host, so even 400
// alternated pairs of runs left the median difference spread over
// 0.5-2.1%. The cell is the unit that carries the tracing cost, so the
// gate times cells instead:
//   - two CellRunners over the same corpus and configuration, one
//     traced, each cell run in ABBA order (bare, traced, traced, bare,
//     mirrored on alternate cells), so paired runs are a fraction of a
//     millisecond apart and a linear drift cancels within each quad;
//   - the collector is off while a round of cells runs, and the heap is
//     collected between rounds, so no cell pays for garbage it did not
//     make;
//   - monotonic wall time per cell, which resolves the few microseconds
//     a span costs (getrusage reports whole microseconds, half a
//     percent of a cell); a cell the scheduler preempts is an outlier
//     that the median discards;
//   - the median quad difference over the mean bare cell.
func BenchmarkHybridTraceOverhead(b *testing.B) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 128, Bits: 512, WeakPairs: 4, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	ms := c.Moduli()
	runner := func(tr *obs.Tracer) *CellRunner {
		r, err := NewCellRunner(ms, Config{
			Config:    engine.Config{Metrics: obs.NewRegistry(), Trace: tr},
			Algorithm: gcd.Approximate, Early: true, TileSize: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	bare, traced := runner(nil), runner(obs.NewTracer(io.Discard))
	ctx := context.Background()
	var factors int
	cell := func(r *CellRunner, u int) time.Duration {
		t0 := time.Now()
		rec, err := r.RunUnit(ctx, u)
		d := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		factors += len(rec.Factors)
		return d
	}

	// Warm both runners off the clock (the column tile products, the
	// kernels' arenas, the tracer) and check the findings once.
	for u := 0; u < bare.Units(); u++ {
		cell(bare, u)
		cell(traced, u)
	}
	if factors != 2*len(c.Planted) {
		b.Fatalf("found %d factors per runner, planted %d", factors/2, len(c.Planted))
	}

	const rounds = 40
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var diffs []float64
	var bareTotal float64
	for i := 0; i < b.N; i++ {
		for round := 0; round < rounds; round++ {
			runtime.GC()
			for u := 0; u < bare.Units(); u++ {
				first, second := bare, traced
				if (round+u)%2 == 1 {
					first, second = traced, bare
				}
				f1 := cell(first, u)
				s1 := cell(second, u)
				s2 := cell(second, u)
				f2 := cell(first, u)
				bareT, tracedT := f1+f2, s1+s2
				if first == traced {
					bareT, tracedT = tracedT, bareT
				}
				diffs = append(diffs, float64(tracedT-bareT)/2)
				bareTotal += float64(bareT)
			}
		}
	}
	sort.Float64s(diffs)
	median := diffs[len(diffs)/2]
	meanBare := bareTotal / float64(2*len(diffs))
	overhead := 100 * median / meanBare
	b.ReportMetric(overhead, "%overhead")
	if overhead > 2.0 {
		b.Fatalf("tracing overhead %.2f%% exceeds the 2%% budget (median quad diff %v over mean bare cell %v)",
			overhead, time.Duration(median), time.Duration(meanBare))
	}
}
