package mpnat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// treeMulWords is the operand size of the enforced benchmark: 64k
// 32-bit words = 2 Mbit, the top-level multiplication of a product
// tree over ~4096 512-bit moduli — exactly the shape the batch and
// hybrid engines feed Mul. Short mode shrinks it so bench-smoke stays
// cheap while still enforcing the bound.
const treeMulWords = 64 * 1024

// BenchmarkTreeMul is the self-enforcing regression gate that
// tree-sized products leave the schoolbook loop: it multiplies two
// tree-level-sized operands with basicMul and with Mul, verifies the
// products are identical, fails the run outright if Mul is not at
// least 2x faster, and then reports Mul's ns/op. Run it at
// GOMAXPROCS=1: both paths are single-goroutine, and the paper's
// per-core accounting keeps the comparison honest.
func BenchmarkTreeMul(b *testing.B) {
	words := treeMulWords
	reps := 1
	if testing.Short() {
		words = 8 * 1024
		reps = 2
	}
	r := rand.New(rand.NewSource(612))
	x, y := randNat(r, words), randNat(r, words)
	s := new(MulScratch)
	school, fast := make([]uint32, 2*words), new(Nat).Grow(2*words)

	var schoolNs, fastNs time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		basicMul(school, x.w, y.w)
		schoolNs += time.Since(start)
		start = time.Now()
		s.Mul(fast, x, y)
		fastNs += time.Since(start)
	}
	if NewFromWords(school).Cmp(fast) != 0 {
		b.Fatal("Mul product differs from schoolbook")
	}
	speedup := float64(schoolNs) / float64(fastNs)
	b.Logf("%d-word operands: schoolbook %v, Mul %v, speedup %.1fx",
		words, schoolNs/time.Duration(reps), fastNs/time.Duration(reps), speedup)
	if speedup < 2 {
		b.Fatalf("Mul is only %.2fx schoolbook on %d-word operands, want >= 2x", speedup, words)
	}
	b.ReportMetric(speedup, "x-vs-schoolbook")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mul(fast, x, y)
	}
	b.ReportMetric(float64(words), "words")
}

// BenchmarkMulThresholds is the sweep behind the shipped bigMulWords
// cutoff: for a shorter operand of 8 to 64 words it times the
// schoolbook loop and the math/big round trip (pack both operands,
// multiply, unpack), against an equal-length operand and against a
// 512-word one (the shape of a tile product or spine root times a
// modulus-sized operand), so `go test -bench BenchmarkMulThresholds`
// re-derives the crossover on any machine. Not enforced —
// BenchmarkTreeMul is the gate.
func BenchmarkMulThresholds(b *testing.B) {
	r := rand.New(rand.NewSource(613))
	for _, words := range []int{8, 12, 16, 20, 23, 24, 25, 28, 32, 48, 64} {
		for _, long := range []int{words, 512} {
			x, y := randNat(r, long), randNat(r, words)
			s := new(MulScratch)
			z := new(Nat).Grow(long + words)
			b.Run(fmt.Sprintf("words=%dx%d/schoolbook", words, long), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					basicMul(z.w[:long+words], x.w, y.w)
				}
			})
			b.Run(fmt.Sprintf("words=%dx%d/bigmul", words, long), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.bigMul(z, x, y)
				}
			})
		}
	}
}
