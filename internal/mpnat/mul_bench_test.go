package mpnat

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMulThresholds is the sweep behind the shipped bigMulWords
// cutoff: for a shorter operand of 8 to 64 words it times the
// schoolbook loop and the math/big round trip (pack both operands,
// multiply, unpack), against an equal-length operand and against a
// 512-word one, so `go test -bench BenchmarkMulThresholds` re-derives
// the crossover on any machine. Not enforced.
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
