package registry

import (
	"math/big"
	"testing"
)

// FuzzSpineMerge drives the delta-update path — append, carry-merge
// along the rightmost spine, reopen and rebuild — with arbitrary small
// moduli and checks three invariants after every single submission:
//
//  1. the verdict's G equals the direct big.Int computation
//     gcd(n, Π previous mod n), the batch-GCD per-key value;
//  2. the product of the spine-root node values equals the big.Int
//     product of every accepted modulus, i.e. the forest still
//     multiplies out to the corpus product after the merge;
//  3. every node in the store's map equals the product of its span's
//     leaves.
//
// A key whose first byte has its top bit set closes and reopens the
// registry after its submission. No node of a forest under 256 keys has
// a file, so the reopened store rebuilds every node it needs from the
// corpus log.
func FuzzSpineMerge(f *testing.F) {
	f.Add([]byte{0x0f, 0x4d, 0x15, 0x63, 0x0f})
	f.Add([]byte{0xff, 0xff, 0xff, 0x01, 0x01, 0x01, 0x35, 0x35})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxKeys = 24
		dir := t.TempDir()
		r := openT(t, dir, Config{})
		defer func() { r.Close() }()

		product := big.NewInt(1) // over accepted keys
		var accepted []*big.Int
		for pos := 0; pos+3 <= len(data) && len(accepted) < maxKeys; pos += 3 {
			v := uint64(data[pos])<<16 | uint64(data[pos+1])<<8 | uint64(data[pos+2])
			n := new(big.Int).SetUint64(v)
			verdict, err := r.Submit(n)
			if err != nil {
				t.Fatal(err)
			}
			if data[pos]&0x80 != 0 {
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				r = openT(t, dir, Config{})
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
			for _, k := range appendRootsOf(nil, len(accepted)) {
				forest.Mul(forest, r.store.value(k))
			}
			if forest.Cmp(product) != 0 {
				t.Fatalf("after %d keys: forest product %v != corpus product %v", len(accepted), forest, product)
			}

			// Invariant 3: the map holds only products of their spans.
			for k, got := range r.store.nodes {
				lo, hi := k.span()
				if hi > len(accepted) {
					t.Fatalf("after %d keys: node %+v spans leaves [%d,%d)", len(accepted), k, lo, hi)
				}
				want := big.NewInt(1)
				for _, m := range accepted[lo:hi] {
					want.Mul(want, m)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("after %d keys: node %+v = %v, want %v", len(accepted), k, got, want)
				}
			}
		}
	})
}

// FuzzSubmitBatchMatchesKeyByKey: any cut of a key stream into batches
// gets the verdicts, corpus log and journal of key-by-key submission.
// Byte 0 sets how many keys (0-255) both registries hold before the
// stream, the odd primes 3, 5, 7, ..., so a stream crosses the chunk
// boundary at seedSpan and shares small primes with its history. Every
// following byte triple is one key: a 16-bit modulus (zero, even, one
// and repeats included) and a flag byte whose low bit ends the current
// batch after the key.
func FuzzSubmitBatchMatchesKeyByKey(f *testing.F) {
	f.Add([]byte{0, 1, 0, 15, 0, 0, 77, 1, 0, 21})
	f.Add([]byte{250, 0, 0, 15, 0, 4, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 35, 0, 0, 35, 0, 0, 7, 0, 1, 1})
	f.Add([]byte{255, 1, 0, 9, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxKeys = 32
		if len(data) == 0 {
			return
		}
		var history []*big.Int
		for p := int64(3); len(history) < int(data[0]); p += 2 {
			if big.NewInt(p).ProbablyPrime(0) {
				history = append(history, big.NewInt(p))
			}
		}
		batchDir, keyDir := t.TempDir(), t.TempDir()
		batch, byKey := openT(t, batchDir, Config{}), openT(t, keyDir, Config{})
		for _, r := range []*Registry{batch, byKey} {
			if _, err := r.SubmitBatch(history); err != nil {
				t.Fatal(err)
			}
		}

		var got, want, pending []*big.Int
		var gotV, wantV []Verdict
		for pos := 1; pos+3 <= len(data) && len(want) < maxKeys; pos += 3 {
			n := big.NewInt(int64(data[pos+1])<<8 | int64(data[pos+2]))
			v, err := byKey.Submit(n)
			if err != nil {
				t.Fatal(err)
			}
			want, wantV = append(want, n), append(wantV, v)
			pending = append(pending, n)
			if data[pos]&1 == 1 {
				vs, err := batch.SubmitBatch(pending)
				if err != nil {
					t.Fatal(err)
				}
				got, gotV, pending = append(got, pending...), append(gotV, vs...), nil
			}
		}
		if len(pending) > 0 {
			vs, err := batch.SubmitBatch(pending)
			if err != nil {
				t.Fatal(err)
			}
			got, gotV = append(got, pending...), append(gotV, vs...)
		}
		defer func() {
			if t.Failed() {
				t.Logf("history %d keys, stream %v", len(history), want)
			}
		}()
		sameVerdicts(t, gotV, wantV)
		for _, r := range []*Registry{batch, byKey} {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
		sameLogs(t, batchDir, keyDir)
	})
}
