package registry

import (
	"context"
	"math/big"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/rsakey"
)

// BenchmarkRegistrySubmit is the self-enforcing cost gate for the
// incremental registry. It seeds a registry with a 65536-key corpus of
// real 128-bit semiprimes (8192 under -short; real primes keep shared
// factors as sparse as a genuine key population — pseudo moduli share
// small primes so densely that every submission descends the tree),
// then measures single-key Submit latency and fails outright unless
// both acceptance bounds hold:
//
//   - amortized O(1) maintenance: the seeding phase performed at most
//     one spine merge multiplication per accepted key (the binary
//     counter bound, N - popcount(N)), and no single measured Submit
//     merged more than ⌈log2 N⌉+1 nodes;
//   - speedup over rescan: one incremental Submit (check + append +
//     journal + fsync) must beat rerunning the batch-GCD oracle over
//     the whole corpus — what every submission would cost without the
//     persistent index — by ≥ 10× at the full 65536-key size the
//     acceptance bound names, ≥ 5× at the -short smoke size (the
//     advantage grows with N, so the small corpus gets the looser
//     bound).
//
// The bench reports ns/submit, the rescan latency, and the speedup so
// bench-smoke archives the numbers alongside the pass/fail.
func BenchmarkRegistrySubmit(b *testing.B) {
	count, minSpeedup := 65536, 10.0
	if testing.Short() {
		count, minSpeedup = 8192, 5.0
	}
	const bits_ = 128
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count + 512, Bits: bits_, WeakPairs: 16, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	all := make([]*big.Int, 0, count+512)
	for _, n := range c.Moduli() {
		all = append(all, n.ToBig())
	}
	seed, fresh := all[:count], all[count:]

	r := openT(b, b.TempDir(), Config{NodeBudget: 256 << 20})
	for pos := 0; pos < len(seed); pos += 1024 {
		end := pos + 1024
		if end > len(seed) {
			end = len(seed)
		}
		if _, err := r.SubmitBatch(seed[pos:end]); err != nil {
			b.Fatal(err)
		}
	}
	defer r.Close()

	// Gate 1a: amortized one merge per key over the whole seed phase.
	if sm := r.Stats().SpineMults; sm > int64(count) {
		b.Fatalf("seeding %d keys took %d spine mults, want <= %d (amortized O(1) violated)", count, sm, count)
	}

	// Rescan baseline: the batch-GCD oracle over the current corpus,
	// measured once. This is the per-submission cost of the pre-registry
	// workflow (full product+remainder tree from scratch).
	start := time.Now()
	if _, err := batchgcd.SharedFactorsContext(context.Background(), seed, batchgcd.Config{}); err != nil {
		b.Fatal(err)
	}
	rescan := time.Since(start)

	logBound := int64(bits.Len(uint(r.Len()))) + 1

	b.ReportAllocs()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	b.ResetTimer()
	start = time.Now()
	for i := 0; i < b.N; i++ {
		before := r.Stats().SpineMults
		if _, err := r.Submit(fresh[i%len(fresh)]); err != nil {
			b.Fatal(err)
		}
		// Gate 1b: one append never merges more than ⌈log2 N⌉+1 nodes.
		if d := r.Stats().SpineMults - before; d > logBound {
			b.Fatalf("submit %d merged %d nodes, want <= %d (O(log N) violated)", i, d, logBound)
		}
	}
	b.StopTimer()
	perSubmit := time.Since(start) / time.Duration(b.N)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	b.ReportMetric(float64(perSubmit.Nanoseconds()), "ns/submit")
	b.ReportMetric(float64(rescan.Nanoseconds()), "rescan-ns")
	speedup := float64(rescan) / float64(perSubmit)
	b.ReportMetric(speedup, "rescan-x")

	// Gate 2: the headline acceptance bound.
	if speedup < minSpeedup {
		b.Fatalf("incremental submit %v vs full rescan %v: %.1fx, want >= %.0fx", perSubmit, rescan, speedup, minSpeedup)
	}

	// Gate 3: allocation regression bound on the steady-state submit
	// path. PR10 retained the fold accumulator, the spine-root list and
	// the descent scratch per registry, leaving ~52 allocs per submit
	// (the fresh Verdict.G, journal marshalling, and the durability
	// syscalls). The bound carries slack for platform variance but fails
	// loudly if per-call scratch creeps back in. Skipped for tiny b.N,
	// where one cold-path warm-up (scratch growth, file handles)
	// dominates the average.
	if b.N >= 10 {
		allocsPerOp := (msAfter.Mallocs - msBefore.Mallocs) / uint64(b.N)
		bytesPerOp := (msAfter.TotalAlloc - msBefore.TotalAlloc) / uint64(b.N)
		if allocsPerOp > 80 {
			b.Fatalf("submit allocated %d objects/op, want <= 80 (regression: per-call scratch on the hot path?)", allocsPerOp)
		}
		if bytesPerOp > 64<<10 {
			b.Fatalf("submit allocated %d bytes/op, want <= %d", bytesPerOp, 64<<10)
		}
	}
}
