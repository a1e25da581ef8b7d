package registry

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randWords returns a random value of exactly words words (top word
// non-zero, low bit set when odd), or 0 for no words.
func randWords(rng *rand.Rand, words int, odd bool) *big.Int {
	ws := make([]big.Word, words)
	for i := range ws {
		ws[i] = big.Word(rng.Uint64())
	}
	if words > 0 {
		ws[words-1] |= 1 << 62
		if odd {
			ws[0] |= 1
		}
	}
	return new(big.Int).SetBits(ws)
}

// FuzzFoldReduce checks the fold's reduction (powers.prepare, then
// foldScratch.mod) against big.Int.Mod. n has 1 to 300 words; shape
// picks a random value, a value of all-ones words, a multiple of n, or
// n = 1, the smallest odd modulus SubmitBatch accepts. The value is 0
// to 2·foldLen(n) words long, so both sides of the fold threshold run
// for every n, and values shorter than n too. The table is first built
// for another modulus and for a shorter value, so build's rebuild and
// extension both run before the reduction. The value must come back
// unchanged: mod only reads it.
func FuzzFoldReduce(f *testing.F) {
	f.Add(uint16(15), uint16(16*40), uint8(0), int64(1))     // 1024-bit n, folded
	f.Add(uint16(15), uint16(16*31), uint8(0), int64(2))     // just below the threshold
	f.Add(uint16(0), uint16(257), uint8(1), int64(3))        // all ones, hi one word at k = 256
	f.Add(uint16(15), uint16(16*32+1), uint8(1), int64(4))   // all ones, hi one word at k = 512
	f.Add(uint16(299), uint16(300*32+1), uint8(1), int64(5)) // all ones, hi one word at k = 9600
	f.Add(uint16(15), uint16(5), uint8(0), int64(6))         // shorter than n
	f.Add(uint16(15), uint16(16*48), uint8(2), int64(7))     // a multiple of n
	f.Add(uint16(0), uint16(300), uint8(2), int64(8))        // a multiple of a one-word n
	f.Add(uint16(0), uint16(400), uint8(3), int64(9))        // n = 1
	f.Add(uint16(63), uint16(64*33), uint8(0), int64(10))    // n in math/big's Karatsuba range
	f.Fuzz(func(t *testing.T, nWords, xWords uint16, shape uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := randWords(rng, int(nWords)%300+1, true)
		if shape%4 == 3 {
			n.SetInt64(1)
		}
		words := int(xWords) % (2*foldLen(n) + 1)
		var x *big.Int
		switch shape % 4 {
		case 1:
			x = new(big.Int).Sub(new(big.Int).Lsh(one, uint(64*words)), one)
		case 2:
			x = new(big.Int).Mul(n, randWords(rng, max(words-len(n.Bits()), 0), false))
		default:
			x = randWords(rng, words, false)
		}
		orig := new(big.Int).Set(x)

		var pw powers
		pw.prepare(randWords(rng, len(n.Bits()), true), len(x.Bits()))
		pw.prepare(n, foldLen(n))
		pw.prepare(n, len(x.Bits()))
		var s foldScratch
		s.mod(x, n, &pw)
		if want := new(big.Int).Mod(orig, n); s.rem.Cmp(want) != 0 {
			t.Fatalf("%d-word value mod %d-word n: got %v, want %v", len(orig.Bits()), len(n.Bits()), &s.rem, want)
		}
		if x.Cmp(orig) != 0 {
			t.Fatalf("mod wrote into its %d-word input", len(orig.Bits()))
		}
	})
}

// BenchmarkFoldReduce is the grid behind foldRatio and foldMinWords:
// the reduction of a value ratio times longer than a w-word n by one
// QuoRem, and by fold then QuoRem with the table rebuilt every time, as
// each one-key submit rebuilds it. mod folds the cells where w·ratio ≥
// foldLen(n). DESIGN.md 5i, "Fold cost", quotes it.
func BenchmarkFoldReduce(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 16, 40, 128, 512, 2048} {
		for _, ratio := range []int{4, 16, 32, 64, 256} {
			if w*ratio > 1<<17 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(w*1000 + ratio)))
			n := randWords(rng, w, true)
			x := randWords(rng, w*ratio, false)
			b.Run(fmt.Sprintf("w=%d/ratio=%d/quorem", w, ratio), func(b *testing.B) {
				var s foldScratch
				for i := 0; i < b.N; i++ {
					s.quo.QuoRem(x, n, &s.rem)
				}
			})
			b.Run(fmt.Sprintf("w=%d/ratio=%d/fold", w, ratio), func(b *testing.B) {
				var s foldScratch
				var pw powers
				for i := 0; i < b.N; i++ {
					pw.c = pw.c[:0]
					pw.build(n, len(x.Bits()))
					s.quo.QuoRem(s.fold(x, n, &pw), n, &s.rem)
				}
			})
		}
	}
}
