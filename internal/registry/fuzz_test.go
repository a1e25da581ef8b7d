package registry

import (
	"math/big"
	"testing"
)

// FuzzSpineMerge drives the delta-update path — append, carry-merge
// along the rightmost spine, node spill and reload — with arbitrary
// small moduli and checks two invariants after every single submission:
//
//  1. the verdict's G equals the direct big.Int computation
//     gcd(n, Π previous mod n), the batch-GCD per-key value;
//  2. the product of the spine-root node values equals the big.Int
//     product of every accepted modulus, i.e. the forest still
//     multiplies out to the corpus product after the merge.
func FuzzSpineMerge(f *testing.F) {
	f.Add([]byte{0x0f, 0x4d, 0x15, 0x63, 0x0f})
	f.Add([]byte{0xff, 0xff, 0xff, 0x01, 0x01, 0x01, 0x35, 0x35})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxKeys = 24
		r := openT(t, t.TempDir(), Config{NodeBudget: 64}) // tiny budget: constant spill
		defer r.Close()

		product := big.NewInt(1) // over accepted keys
		var accepted []*big.Int
		for pos := 0; pos+3 <= len(data) && len(accepted) < maxKeys; pos += 3 {
			v := uint64(data[pos])<<16 | uint64(data[pos+1])<<8 | uint64(data[pos+2])
			n := new(big.Int).SetUint64(v)
			verdict, err := r.Submit(n)
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 || v%2 == 0 {
				if verdict.Kind != Malformed {
					t.Fatalf("modulus %d: kind %v, want Malformed", v, verdict.Kind)
				}
				continue
			}
			if verdict.Kind == Malformed {
				t.Fatalf("odd modulus %d rejected: %+v", v, verdict)
			}

			// Invariant 1: G is the batch-GCD per-key value. GCD(n, 0) = n,
			// which matches the registry's acc==0 ⇒ G=n convention.
			want := new(big.Int).GCD(nil, nil, n, new(big.Int).Mod(product, n))
			if verdict.G.Cmp(want) != 0 {
				t.Fatalf("key %d (n=%d): G=%v, want %v", verdict.Index, v, verdict.G, want)
			}
			// Partners must divide both moduli; Dup iff equal values.
			for _, p := range verdict.Partners {
				m := accepted[p.Index]
				if new(big.Int).Mod(n, p.Factor).Sign() != 0 || new(big.Int).Mod(m, p.Factor).Sign() != 0 {
					t.Fatalf("partner %+v does not divide both %d and %v", p, v, m)
				}
				if p.Dup != (n.Cmp(m) == 0) {
					t.Fatalf("partner %+v: dup flag wrong for %d vs %v", p, v, m)
				}
			}

			accepted = append(accepted, n)
			product.Mul(product, n)

			// Invariant 2: the spine still multiplies out to the corpus
			// product after the carry merges.
			forest := big.NewInt(1)
			for _, k := range rootsOf(len(accepted)) {
				forest.Mul(forest, r.store.value(k))
			}
			if forest.Cmp(product) != 0 {
				t.Fatalf("after %d keys: forest product %v != corpus product %v", len(accepted), forest, product)
			}
		}
	})
}
