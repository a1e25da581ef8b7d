package bulk

import (
	"fmt"
	"math/big"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// fuzzOddModuli decodes the fuzz input into 2..8 small odd positive
// moduli: byte 0 picks the count, each following byte pair one 16-bit
// value forced odd. Small values collide on factors constantly, which
// is exactly what stresses the filter's hit path.
func fuzzOddModuli(data []byte) []*mpnat.Nat {
	if len(data) < 5 {
		return nil
	}
	n := 2 + int(data[0])%7
	var out []*mpnat.Nat
	for i := 1; i+1 < len(data) && len(out) < n; i += 2 {
		v := uint64(data[i])<<8 | uint64(data[i+1])
		out = append(out, mpnat.New(v|1))
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

// FuzzHybridMatchesNaive cross-checks the hybrid engine against
// brute-force pairwise big.Int GCD on arbitrary small odd-moduli sets,
// at every interesting tile size: the reported factor pairs must be
// exactly the naive non-coprime pairs with the exact gcd values, and
// every covered pair must be accounted.
func FuzzHybridMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 15, 0, 21})                   // 15, 21 share 3
	f.Add([]byte{1, 0, 15, 0, 21, 0, 35})            // every prime shared
	f.Add([]byte{0, 0, 15, 0, 15})                   // duplicates
	f.Add([]byte{2, 0, 15, 0, 15, 0, 15, 0, 7})      // triple duplicate + coprime
	f.Add([]byte{0, 0, 3, 0, 45})                    // 3 divides 45
	f.Add([]byte{6, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})   // random-ish spread
	f.Add([]byte{3, 0, 1, 0, 1, 255, 255, 127, 253}) // ones and big odds
	// Sharing only inside one tile, found by the diagonal cells' prefix
	// filter alone: 77 = 7·11 twice, 247 = 13·19 dividing 221·437 =
	// 13·17·19·23, and 1.
	f.Add([]byte{2, 0, 77, 0, 77, 0, 221, 1, 181})               // duplicate in the first tile of 2
	f.Add([]byte{2, 0, 221, 1, 181, 0, 247, 0, 1})               // divisor of its tile's product, and 1
	f.Add([]byte{4, 0, 77, 0, 77, 0, 221, 1, 181, 0, 247, 0, 1}) // all of them in one tile

	f.Fuzz(func(t *testing.T, data []byte) {
		ms := fuzzOddModuli(data)
		if ms == nil {
			return
		}
		// Naive oracle: every pair with gcd > 1, in (i, j) order.
		bigs := make([]*big.Int, len(ms))
		for i, m := range ms {
			bigs[i] = m.ToBig()
		}
		var want []string
		for i := 0; i < len(bigs); i++ {
			for j := i + 1; j < len(bigs); j++ {
				g := new(big.Int).GCD(nil, nil, bigs[i], bigs[j])
				if g.Cmp(big.NewInt(1)) > 0 {
					want = append(want, fmt.Sprintf("%d,%d,%x", i, j, g))
				}
			}
		}
		for _, tile := range []int{1, 2, 3, len(ms)} {
			for _, workers := range []int{1, 8} {
				res, err := Hybrid(ms, Config{
					Config:    engine.Config{Workers: workers},
					Algorithm: gcd.Approximate, TileSize: tile,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := factorKeys(res.Factors)
				if len(got) != len(want) {
					t.Fatalf("tile=%d workers=%d: %d factors, naive %d (%v vs %v, ms=%v)",
						tile, workers, len(got), len(want), got, want, ms)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("tile=%d workers=%d: factor %d = %s, naive %s (ms=%v)",
							tile, workers, i, got[i], want[i], ms)
					}
				}
				if res.Pairs != res.Total {
					t.Fatalf("tile=%d workers=%d: covered %d of %d pairs", tile, workers, res.Pairs, res.Total)
				}
			}
		}
	})
}
