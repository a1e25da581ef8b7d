package attack

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/rsakey"
)

// differentialCorpus builds a seeded corpus of bits-bit moduli exercising
// every finding class the engines must agree on: planted shared-prime
// pairs, a prime shared across three moduli, a duplicated modulus, and
// coprime fillers.
func differentialCorpus(t *testing.T, seed int64, bits int) []*mpnat.Nat {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: 14, Bits: bits, WeakPairs: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	moduli := c.Moduli()

	// Extend planted pair 0 into a shared-prime triple.
	r := rand.New(rand.NewSource(seed + 1000))
	p := c.Planted[0].P
	q := rsakey.GeneratePrime(r, bits/2)
	moduli = append(moduli, mpnat.FromBig(new(big.Int).Mul(p, q)))

	// Duplicate a clean modulus (one outside every planted pair).
	planted := map[int]bool{}
	for _, pp := range c.Planted {
		planted[pp.I] = true
		planted[pp.J] = true
	}
	for i := range c.Keys {
		if !planted[i] {
			moduli = append(moduli, moduli[i])
			break
		}
	}
	return moduli
}

// naiveReference is the brute-force all-pairs math/big oracle: for every
// pair it computes gcd(n_i, n_j) directly and classifies the outcome the
// way Report does.
func naiveReference(moduli []*mpnat.Nat) (broken map[int]*big.Int, dups [][2]int) {
	bigs := make([]*big.Int, len(moduli))
	for i, m := range moduli {
		bigs[i] = m.ToBig()
	}
	broken = map[int]*big.Int{}
	for i := 0; i < len(bigs); i++ {
		for j := i + 1; j < len(bigs); j++ {
			g := new(big.Int).GCD(nil, nil, bigs[i], bigs[j])
			if g.Cmp(big.NewInt(1)) == 0 {
				continue
			}
			if g.Cmp(bigs[i]) == 0 && g.Cmp(bigs[j]) == 0 {
				dups = append(dups, [2]int{i, j})
				continue
			}
			for _, side := range []int{i, j} {
				if g.Cmp(bigs[side]) < 0 {
					if prev, ok := broken[side]; ok && prev.Cmp(g) != 0 {
						// Corpus must keep shared structure unambiguous.
						panic(fmt.Sprintf("modulus %d shares different factors", side))
					}
					broken[side] = g
				}
			}
		}
	}
	return broken, dups
}

// TestDifferentialEngines runs every engine combination — the five GCD
// algorithms with early termination on and off, the batch-GCD engine at
// two pool sizes (its subtests keep the tree=big label: the batch engine
// runs the big.Int trees), the hybrid engine and the lane kernel — over
// the same corpus, cross-checks each report against the naive all-pairs
// reference, and asserts all reports are identical to one another
// (FoundWith excepted: batch GCD has no notion of a revealing pair).
func TestDifferentialEngines(t *testing.T) {
	for seed := int64(60); seed < 63; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			moduli := differentialCorpus(t, seed, 128)
			wantBroken, wantDups := naiveReference(moduli)

			type combo struct {
				name string
				opt  Options
				// bulk, when non-nil, adjusts the engine configuration the
				// Options map to: the lane width is a test knob Options
				// does not expose.
				bulk func(*bulk.Config)
			}
			var combos []combo
			for _, alg := range gcd.Algorithms {
				for _, early := range []bool{false, true} {
					combos = append(combos, combo{
						name: fmt.Sprintf("%s/early=%v", alg, early),
						opt: Options{
							Config:    engine.Config{Workers: 2},
							Algorithm: alg, Early: early,
							Exponent: rsakey.DefaultExponent,
						},
					})
				}
			}
			// Approximate pinned to the scalar kernel: the reference the
			// lane kernel (the default above) must match byte for byte.
			for _, early := range []bool{false, true} {
				combos = append(combos, combo{
					name: fmt.Sprintf("approximate-scalar/early=%v", early),
					opt: Options{
						Config:    engine.Config{Workers: 2},
						Algorithm: gcd.Approximate, Early: early,
						Kernel:   engine.KernelScalar,
						Exponent: rsakey.DefaultExponent,
					},
				})
			}
			for _, w := range []int{1, 3} {
				combos = append(combos, combo{
					name: fmt.Sprintf("batch/workers=%d/tree=big", w),
					opt: Options{
						Config:   engine.Config{Workers: w},
						Engine:   engine.Batch,
						Exponent: rsakey.DefaultExponent,
					},
				})
			}
			for _, tile := range []int{1, 4, 32, len(moduli)} {
				for _, w := range []int{1, 8} {
					combos = append(combos, combo{
						name: fmt.Sprintf("hybrid/tile=%d/workers=%d", tile, w),
						opt: Options{
							Config:    engine.Config{Workers: w},
							Engine:    engine.Hybrid,
							Algorithm: gcd.Approximate, Early: true,
							TileSize: tile,
							Exponent: rsakey.DefaultExponent,
						},
					})
				}
			}
			// Lane-batched kernel: both engines it serves, lane widths
			// down to L=1, early on and off. Findings must be identical
			// to every scalar combo above.
			for _, lw := range []int{1, 4, 16} {
				lw := lw
				width := func(c *bulk.Config) { c.LaneWidth = lw }
				for _, early := range []bool{false, true} {
					combos = append(combos, combo{
						name: fmt.Sprintf("pairs/lanes=%d/early=%v", lw, early),
						opt: Options{
							Config:    engine.Config{Workers: 2},
							Algorithm: gcd.Approximate, Early: early,
							Exponent: rsakey.DefaultExponent,
						},
						bulk: width,
					})
				}
				combos = append(combos, combo{
					name: fmt.Sprintf("hybrid/lanes=%d", lw),
					opt: Options{
						Config:    engine.Config{Workers: 3},
						Engine:    engine.Hybrid,
						Algorithm: gcd.Approximate, Early: true,
						TileSize: 4,
						Exponent: rsakey.DefaultExponent,
					},
					bulk: width,
				})
			}

			var base *Report
			for _, cb := range combos {
				cb := cb
				t.Run(cb.name, func(t *testing.T) {
					rep, err := runBulk(moduli, cb.opt, cb.bulk)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstNaive(t, moduli, rep, wantBroken, wantDups)
					if base == nil {
						base = rep
						return
					}
					checkReportsIdentical(t, base, rep)
				})
			}
		})
	}
}

// runBulk is Run with adjust applied to the bulk engine configuration;
// a nil adjust is plain Run.
func runBulk(moduli []*mpnat.Nat, opt Options, adjust func(*bulk.Config)) (*Report, error) {
	if adjust == nil {
		return Run(moduli, opt)
	}
	cfg := opt.bulkConfig()
	adjust(&cfg)
	run := bulk.AllPairs
	if opt.Engine == engine.Hybrid {
		run = bulk.Hybrid
	}
	res, err := run(moduli, cfg)
	if err != nil {
		return nil, err
	}
	return interpretFactors(moduli, res, opt)
}

// checkAgainstNaive verifies one engine's report against the brute-force
// oracle: the same set of broken indices, each factored consistently with
// the naive shared factor, and the same duplicate pairs.
func checkAgainstNaive(t *testing.T, moduli []*mpnat.Nat, rep *Report, wantBroken map[int]*big.Int, wantDups [][2]int) {
	t.Helper()
	if len(rep.Broken) != len(wantBroken) {
		t.Fatalf("broke %d keys, naive reference says %d", len(rep.Broken), len(wantBroken))
	}
	for _, bk := range rep.Broken {
		g, ok := wantBroken[bk.Index]
		if !ok {
			t.Fatalf("key %d broken but coprime per the naive reference", bk.Index)
		}
		if bk.P.Cmp(g) != 0 && bk.Q.Cmp(g) != 0 {
			t.Errorf("key %d: neither factor equals the naive shared factor", bk.Index)
		}
		n := moduli[bk.Index].ToBig()
		if new(big.Int).Mul(bk.P, bk.Q).Cmp(n) != 0 {
			t.Errorf("key %d: P*Q != N", bk.Index)
		}
	}
	if len(rep.Duplicates) != len(wantDups) {
		t.Fatalf("duplicates = %v, naive reference %v", rep.Duplicates, wantDups)
	}
	for i, d := range rep.Duplicates {
		if d != wantDups[i] {
			t.Errorf("duplicate %d = %v, want %v", i, d, wantDups[i])
		}
	}
}

// checkReportsIdentical asserts two engines produced the same findings
// (everything except FoundWith, which only all-pairs mode defines).
func checkReportsIdentical(t *testing.T, a, b *Report) {
	t.Helper()
	if len(a.Broken) != len(b.Broken) {
		t.Fatalf("broken count differs: %d vs %d", len(a.Broken), len(b.Broken))
	}
	for i := range a.Broken {
		x, y := a.Broken[i], b.Broken[i]
		if x.Index != y.Index || x.P.Cmp(y.P) != 0 || x.Q.Cmp(y.Q) != 0 {
			t.Fatalf("broken key %d differs between engines", i)
		}
		if (x.D == nil) != (y.D == nil) || (x.D != nil && x.D.Cmp(y.D) != 0) {
			t.Fatalf("broken key %d: private exponents differ", i)
		}
	}
	if len(a.Duplicates) != len(b.Duplicates) {
		t.Fatalf("duplicate count differs: %v vs %v", a.Duplicates, b.Duplicates)
	}
	for i := range a.Duplicates {
		if a.Duplicates[i] != b.Duplicates[i] {
			t.Fatalf("duplicate %d differs: %v vs %v", i, a.Duplicates[i], b.Duplicates[i])
		}
	}
}

// TestDifferentialEnginesSubquadraticTiles runs the hybrid engine on a
// corpus of 384-bit (12-word) moduli at tiles of 2, 3, 4 and 8, so tile
// subproducts span one to several math/big limbs per modulus and the
// filter's QuoRem divides by a modulus both longer and shorter than the
// product's top levels. Every report must stay byte-identical to the
// scalar all-pairs engine and correct against the naive oracle — a
// miscomputed product or remainder would lose or invent a shared factor
// and the reports would diverge.
func TestDifferentialEnginesSubquadraticTiles(t *testing.T) {
	for seed := int64(75); seed < 77; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			moduli := differentialCorpus(t, seed, 384)
			wantBroken, wantDups := naiveReference(moduli)

			base, err := Run(moduli, Options{
				Config:    engine.Config{Workers: 2},
				Algorithm: gcd.Approximate, Early: true,
				Exponent: rsakey.DefaultExponent,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstNaive(t, moduli, base, wantBroken, wantDups)

			for _, tile := range []int{2, 3, 4, 8} {
				rep, err := Run(moduli, Options{
					Config:    engine.Config{Workers: 3},
					Engine:    engine.Hybrid,
					Algorithm: gcd.Approximate, Early: true,
					TileSize: tile,
					Exponent: rsakey.DefaultExponent,
				})
				if err != nil {
					t.Fatalf("hybrid tile=%d: %v", tile, err)
				}
				checkAgainstNaive(t, moduli, rep, wantBroken, wantDups)
				checkReportsIdentical(t, base, rep)
			}
		})
	}
}
