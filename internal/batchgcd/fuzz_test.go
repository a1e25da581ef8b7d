package batchgcd

import (
	"context"
	"math/big"
	"testing"

	"bulkgcd/internal/engine"
)

// fuzzModuli decodes the fuzz input into 2..8 small odd positive moduli:
// byte 0 picks the count, each following byte pair is one 16-bit value
// forced odd. Small values collide on factors constantly, which is
// exactly what exercises the resolution pass.
func fuzzModuli(data []byte) []*big.Int {
	if len(data) < 5 {
		return nil
	}
	n := 2 + int(data[0])%7
	var out []*big.Int
	for i := 1; i+1 < len(data) && len(out) < n; i += 2 {
		v := uint32(data[i])<<8 | uint32(data[i+1])
		out = append(out, big.NewInt(int64(v|1)))
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

// FuzzBatchGCDMatchesNaive cross-checks Run against brute-force pairwise
// big.Int.GCD on arbitrary small odd-moduli sets: the flagged set, the
// extracted factors and the duplicate links must all be explainable by
// (and complete with respect to) the naive pairwise computation, and the
// parallel path must reproduce the serial path exactly.
func FuzzBatchGCDMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 15, 0, 21})                   // 15, 21 share 3
	f.Add([]byte{1, 0, 15, 0, 21, 0, 35})            // 3*5, 3*7, 5*7: every prime shared
	f.Add([]byte{0, 0, 15, 0, 15})                   // duplicates
	f.Add([]byte{2, 0, 15, 0, 15, 0, 15, 0, 7})      // triple duplicate + coprime
	f.Add([]byte{0, 0, 3, 0, 45})                    // 3 divides 45: g_i == n_i without a duplicate
	f.Add([]byte{6, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})   // random-ish spread
	f.Add([]byte{3, 0, 1, 0, 1, 255, 255, 127, 253}) // ones and big odds

	f.Fuzz(func(t *testing.T, data []byte) {
		ms := fuzzModuli(data)
		if ms == nil {
			return
		}
		serial, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunContext(context.Background(), ms, Config{Config: engine.Config{Workers: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("workers=1 found %d, workers=4 found %d", len(serial), len(parallel))
		}
		for i := range serial {
			s, p := serial[i], parallel[i]
			if s.Index != p.Index || s.DuplicateOf != p.DuplicateOf || s.Factor.Cmp(p.Factor) != 0 {
				t.Fatalf("finding %d differs between pools: %+v vs %+v", i, s, p)
			}
		}

		byIdx := map[int]Finding{}
		for i, fd := range serial {
			if i > 0 && serial[i-1].Index >= fd.Index {
				t.Fatalf("findings not strictly ordered by index: %+v", serial)
			}
			byIdx[fd.Index] = fd
		}

		for i, n := range ms {
			// Naive leaf value: gcd(n_i, prod_{j != i} n_j mod n_i).
			rest := big.NewInt(1)
			minDup := -1
			properPair := (*big.Int)(nil)
			for j, m := range ms {
				if j == i {
					continue
				}
				rest.Mul(rest, m)
				g := new(big.Int).GCD(nil, nil, n, m)
				if n.Cmp(m) == 0 && minDup < 0 {
					minDup = j
				}
				if g.Cmp(one) > 0 && g.Cmp(n) < 0 && properPair == nil {
					properPair = g
				}
			}
			rest.Mod(rest, n)
			want := new(big.Int).GCD(nil, nil, rest, n)

			fd, flagged := byIdx[i]
			if want.Cmp(one) == 0 {
				if flagged {
					t.Fatalf("modulus %d (%v) flagged but coprime with the rest (%v)", i, n, ms)
				}
				continue
			}
			if !flagged {
				t.Fatalf("modulus %d (%v) shares a factor but was not flagged (%v)", i, n, ms)
			}
			if fd.Factor.Cmp(one) <= 0 || new(big.Int).Mod(n, fd.Factor).Sign() != 0 {
				t.Fatalf("modulus %d: factor %v is not a divisor > 1 of %v", i, fd.Factor, n)
			}
			if want.Cmp(n) < 0 {
				// Proper leaf gcd: Run must report exactly it, and a proper
				// leaf value rules out duplicates.
				if fd.Factor.Cmp(want) != 0 {
					t.Fatalf("modulus %d: factor %v, naive says %v", i, fd.Factor, want)
				}
				if fd.DuplicateOf != -1 {
					t.Fatalf("modulus %d: duplicate link %d despite proper leaf gcd", i, fd.DuplicateOf)
				}
				continue
			}
			// want == n_i: the resolution pass ran. A proper factor must be
			// extracted exactly when some pairwise gcd splits n_i, and the
			// duplicate link is always the smallest identical index.
			if properPair != nil && fd.Factor.Cmp(n) == 0 {
				t.Fatalf("modulus %d: resolution missed proper split %v (%v)", i, properPair, ms)
			}
			if properPair == nil && fd.Factor.Cmp(n) != 0 {
				t.Fatalf("modulus %d: factor %v but no pair splits it (%v)", i, fd.Factor, ms)
			}
			if fd.Factor.Cmp(n) < 0 {
				// The extracted factor must be witnessed by some pair.
				ok := false
				for j, m := range ms {
					if j != i && new(big.Int).GCD(nil, nil, n, m).Cmp(fd.Factor) == 0 {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("modulus %d: factor %v is no pairwise gcd (%v)", i, fd.Factor, ms)
				}
			}
			if fd.DuplicateOf != minDup {
				t.Fatalf("modulus %d: DuplicateOf = %d, want %d (%v)", i, fd.DuplicateOf, minDup, ms)
			}
		}
	})
}
