package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bulkgcd/internal/obs"
)

// readFile returns the contents of dir/name.
func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameLogs asserts that two registry directories hold byte-identical
// corpus logs and journals.
func sameLogs(t *testing.T, got, want string) {
	t.Helper()
	for _, name := range []string{"corpus.log", "journal.jsonl"} {
		if !bytes.Equal(readFile(t, got, name), readFile(t, want, name)) {
			t.Fatalf("%s differs from the key-by-key registry's", name)
		}
	}
}

// submitCuts submits ns to r as consecutive batches of the given sizes,
// the last batch taking whatever is left, and returns every verdict.
func submitCuts(t *testing.T, r *Registry, ns []*big.Int, sizes []int) []Verdict {
	t.Helper()
	var out []Verdict
	for _, size := range sizes {
		size = min(size, len(ns))
		vs, err := r.SubmitBatch(ns[:size])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vs...)
		ns = ns[size:]
	}
	if len(ns) > 0 {
		vs, err := r.SubmitBatch(ns)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vs...)
	}
	return out
}

// submitEach submits ns to r one key at a time.
func submitEach(t *testing.T, r *Registry, ns []*big.Int) []Verdict {
	t.Helper()
	out := make([]Verdict, len(ns))
	for i, n := range ns {
		out[i] = mustSubmit(t, r, n)
	}
	return out
}

// nonSquarefree returns TestDifferentialNonSquarefree's family: a
// product of one to three primes from {3, 5, 7, 11, 13}, repeats
// allowed.
func nonSquarefree(rng *rand.Rand) *big.Int {
	primes := []int64{3, 5, 7, 11, 13}
	n := big.NewInt(1)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		n.Mul(n, big.NewInt(primes[rng.Intn(len(primes))]))
	}
	return n
}

// TestSubmitBatchInvalidWritesNothing: a batch holding a nil or negative
// modulus, first, in the middle or last, fails as a whole. Len, the
// submission count, the broken set, corpus.log and journal.jsonl are
// unchanged, and a retry without the bad key gets the verdicts, corpus
// log and journal of a registry that never saw it.
func TestSubmitBatchInvalidWritesNothing(t *testing.T) {
	history := []*big.Int{b(15), b(77)}
	batch := []*big.Int{b(21), b(1024), b(33), b(221), b(15)}

	clean := t.TempDir()
	ref := openT(t, clean, Config{})
	submitCuts(t, ref, history, nil)
	want := submitCuts(t, ref, batch, nil)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []*big.Int{nil, b(-35)} {
		for _, at := range []int{0, len(batch) / 2, len(batch)} {
			dir := t.TempDir()
			r := openT(t, dir, Config{Metrics: obs.NewRegistry()})
			submitCuts(t, r, history, nil)
			corpusLog, journal := readFile(t, dir, "corpus.log"), readFile(t, dir, "journal.jsonl")
			before := r.Stats()

			withBad := append(append(append([]*big.Int(nil), batch[:at]...), bad), batch[at:]...)
			if vs, err := r.SubmitBatch(withBad); err == nil {
				t.Fatalf("bad=%v at %d: batch accepted with verdicts %+v", bad, at, vs)
			}
			if after := r.Stats(); after != before {
				t.Fatalf("bad=%v at %d: stats %+v after the failed batch, want %+v", bad, at, after, before)
			}
			if r.Len() != len(history) {
				t.Fatalf("bad=%v at %d: Len() = %d after the failed batch, want %d", bad, at, r.Len(), len(history))
			}
			// Close syncs the logs, so what a failed batch buffered would show.
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readFile(t, dir, "corpus.log"), corpusLog) || !bytes.Equal(readFile(t, dir, "journal.jsonl"), journal) {
				t.Fatalf("bad=%v at %d: the failed batch wrote to corpus.log or journal.jsonl", bad, at)
			}

			r = openT(t, dir, Config{})
			got, err := r.SubmitBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdicts(t, got, want)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			sameLogs(t, dir, clean)
		}
	}
}

// mixedCorpus is about 650 submissions: 96-bit weak semiprimes with
// every 8th key duplicated (weakModuli), with the non-squarefree family
// interleaved every 13th position and a malformed key (zero or even)
// every 29th.
func mixedCorpus(t *testing.T) []*big.Int {
	rng := rand.New(rand.NewSource(23))
	var out []*big.Int
	for i, n := range weakModuli(t, 520, 96, 8, 23) {
		switch {
		case i%29 == 3 && i%2 == 0:
			out = append(out, new(big.Int))
		case i%29 == 3:
			out = append(out, new(big.Int).Lsh(n, 1))
		}
		if i%13 == 5 {
			out = append(out, nonSquarefree(rng))
		}
		out = append(out, n)
	}
	return out
}

// TestBatchMatchesKeyByKey: a key stream submitted as one batch, as
// random uneven batches (one larger than seedSpan, several straddling a
// multiple of it) and one key at a time gets the same verdicts, corpus
// log and journal all three ways. Each corpus is submitted after a
// prefix of its own keys, submitted the same way, and the removal of a
// prefix key that shares factors with later keys, so the checks see a
// tombstoned leaf in the forest.
func TestBatchMatchesKeyByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := make([]*big.Int, 600)
	for i := range small {
		small[i] = nonSquarefree(rng)
	}
	for _, c := range []struct {
		name   string
		corpus []*big.Int
	}{
		{"mixed", mixedCorpus(t)},
		{"non-squarefree", small},
	} {
		t.Run(c.name, func(t *testing.T) {
			const prefix = 20
			head, rest := c.corpus[:prefix], c.corpus[prefix:]
			// Cuts: a first batch larger than seedSpan that crosses index
			// 256, then random sizes of 1 to 200.
			cuts := []int{seedSpan + 40}
			for left := len(rest) - cuts[0]; left > 0; {
				size := 1 + rng.Intn(200)
				cuts = append(cuts, size)
				left -= size
			}

			// Tombstone the first prefix key that shares a factor with a
			// later key, so the removal changes later verdicts.
			tomb := -1
			for p := 0; p < prefix && tomb < 0; p++ {
				for _, n := range rest {
					if head[p].Bit(0) == 1 && new(big.Int).GCD(nil, nil, head[p], n).Cmp(one) > 0 {
						tomb = p
						break
					}
				}
			}
			if tomb < 0 {
				t.Fatal("fixture: no prefix key shares a factor with a later key")
			}

			run := func(submit func(*Registry, []*big.Int) []Verdict) (string, []Verdict) {
				dir := t.TempDir()
				r := openT(t, dir, Config{})
				vs := submit(r, head)
				if err := r.Remove(vs[tomb].Index); err != nil {
					t.Fatal(err)
				}
				vs = append(vs, submit(r, rest)...)
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				return dir, vs
			}
			keyDir, want := run(func(r *Registry, ns []*big.Int) []Verdict { return submitEach(t, r, ns) })
			wholeDir, whole := run(func(r *Registry, ns []*big.Int) []Verdict { return submitCuts(t, r, ns, nil) })
			cutDir, cut := run(func(r *Registry, ns []*big.Int) []Verdict {
				if len(ns) == prefix {
					return submitCuts(t, r, ns, []int{7, 1})
				}
				return submitCuts(t, r, ns, cuts)
			})

			// The fixture must reach what it is for: malformed, duplicate
			// and clean keys, and cut batches that straddle multiples of
			// seedSpan.
			kinds := map[Kind]int{}
			for _, v := range want {
				kinds[v.Kind]++
			}
			if c.name == "mixed" && (kinds[Malformed] == 0 || kinds[Duplicate] == 0 || kinds[Clean] == 0) {
				t.Fatalf("verdict kinds %v: fixture lacks a malformed, duplicate or clean key", kinds)
			}
			straddles, pos := 0, prefix
			for _, size := range cuts {
				var idx []int
				for _, v := range want[pos:min(pos+size, len(want))] {
					if v.Index >= 0 {
						idx = append(idx, v.Index)
					}
				}
				if len(idx) > 0 && idx[0]/seedSpan != idx[len(idx)-1]/seedSpan {
					straddles++
				}
				pos += size
			}
			if straddles < 2 {
				t.Fatalf("cuts %v straddle %d multiples of %d, want at least 2", cuts, straddles, seedSpan)
			}

			sameVerdicts(t, whole, want)
			sameVerdicts(t, cut, want)
			sameLogs(t, wholeDir, keyDir)
			sameLogs(t, cutDir, keyDir)
		})
	}
}

// cutJournal keeps the header and the first k records of dir's journal.
func cutJournal(t *testing.T, dir string, k int) {
	t.Helper()
	path := filepath.Join(dir, "journal.jsonl")
	lines := bytes.SplitAfter(readFile(t, dir, "journal.jsonl"), []byte{'\n'})
	if len(lines) < 1+k {
		t.Fatalf("journal has %d lines, want at least %d", len(lines), 1+k)
	}
	if err := os.WriteFile(path, bytes.Join(lines[:1+k], nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayMatchesKeyByKey: a 600-key registry submitted one key at a
// time, whose journal is cut to its first k records, reopens with
// Replayed = 600-k and a journal byte-identical to the uncut one: the
// chunked replay recomputes exactly the records key-by-key submission
// wrote. In the second registry key tomb is tombstoned right after its
// own submission, so every later record was computed without it, and
// the replay runs from 0 and 300 hold it: the key is checked with its
// own modulus and ends its chunk, and the keys after it count it as 1.
// The journal records partners only, so the replay's check path is
// also compared verdict for verdict, G included, with the verdicts
// key-by-key submission returned.
func TestReplayMatchesKeyByKey(t *testing.T) {
	moduli := weakModuli(t, 544, 96, 8, 27)[:600]
	tomb, partner := -1, -1
	for i := 300; i < len(moduli) && tomb < 0; i++ {
		for j := i + 1; j < len(moduli); j++ {
			if new(big.Int).GCD(nil, nil, moduli[i], moduli[j]).Cmp(one) > 0 {
				tomb, partner = i, j
				break
			}
		}
	}
	if tomb < 0 || tomb >= 511 {
		t.Fatalf("fixture: tombstone candidate %d, want one in [300, 511) with a later partner", tomb)
	}

	verdicts := map[string][]Verdict{}
	build := func(removeTomb bool) string {
		dir := t.TempDir()
		r := openT(t, dir, Config{})
		for i, n := range moduli {
			verdicts[dir] = append(verdicts[dir], mustSubmit(t, r, n))
			if removeTomb && i == tomb {
				if err := r.Remove(tomb); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	plain, tombed := build(false), build(true)
	if bytes.Equal(readFile(t, plain, "journal.jsonl"), readFile(t, tombed, "journal.jsonl")) {
		t.Fatalf("fixture: tombstoning key %d left the journal unchanged (its partner is %d)", tomb, partner)
	}

	for _, c := range []struct {
		ref string
		k   int
	}{
		{plain, 0}, {plain, 1}, {plain, 255}, {plain, 256}, {plain, 300},
		{tombed, 0}, {tombed, 300},
	} {
		dir := t.TempDir()
		copyDir(t, c.ref, dir)
		cutJournal(t, dir, c.k)
		r := openT(t, dir, Config{Metrics: obs.NewRegistry()})
		if st := r.Stats(); st.Replayed != int64(len(moduli)-c.k) {
			t.Fatalf("tombed=%v k=%d: Replayed = %d, want %d", c.ref == tombed, c.k, st.Replayed, len(moduli)-c.k)
		}
		var got []Verdict
		r.mu.Lock()
		err := r.checkRun(c.k, len(moduli), func(v Verdict) error { got = append(got, v); return nil })
		r.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, got, verdicts[c.ref][c.k:])
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, dir, "journal.jsonl"), readFile(t, c.ref, "journal.jsonl")) {
			t.Fatalf("tombed=%v k=%d: replayed journal differs from the key-by-key one", c.ref == tombed, c.k)
		}
	}
}

// TestSubmitSpanPerKey: a batch gets one submit span and one
// registry_submit_seconds sample per key, malformed keys included, in
// key order, and a batch that crosses a chunk boundary is no exception.
func TestSubmitSpanPerKey(t *testing.T) {
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	r := openT(t, t.TempDir(), Config{Metrics: reg, Trace: obs.NewTracer(&trace)})
	defer r.Close()
	batch := append([]*big.Int{b(15), b(1024), b(77)}, semiprimes(seedSpan, 9)...)
	if _, err := r.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, r, b(21))
	want := len(batch) + 1
	var verdicts []string
	for dec := json.NewDecoder(&trace); dec.More(); {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "span" && ev.Name == "submit" {
			verdicts = append(verdicts, fmt.Sprint(ev.Attrs["verdict"]))
		}
	}
	if len(verdicts) != want || verdicts[1] != Malformed.String() || verdicts[want-1] != Shared.String() {
		t.Fatalf("%d submit spans with verdicts %v..., want %d with the second malformed and the last shared", len(verdicts), verdicts[:min(4, len(verdicts))], want)
	}
	if n := reg.Snapshot().Histograms["registry_submit_seconds"].Count; n != int64(want) {
		t.Fatalf("registry_submit_seconds has %d samples, want %d", n, want)
	}
}

// TestSubmitSpanCarriesSync: the batch's corpus and journal fsyncs are
// timed in its last key's submit span (sync_ms), so a 3-key batch has
// one such span, last, a one-key submit's span has it, and a batch that
// accepts no key, which syncs nothing, has none.
func TestSubmitSpanCarriesSync(t *testing.T) {
	var trace bytes.Buffer
	r := openT(t, t.TempDir(), Config{Trace: obs.NewTracer(&trace)})
	defer r.Close()
	if _, err := r.SubmitBatch([]*big.Int{b(15), b(1024), b(77)}); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, r, b(21))
	if _, err := r.SubmitBatch([]*big.Int{b(1024), b(0)}); err != nil {
		t.Fatal(err)
	}
	var synced []bool
	for dec := json.NewDecoder(&trace); dec.More(); {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "span" && ev.Name == "submit" {
			ms, ok := ev.Attrs["sync_ms"].(float64)
			if ok && ms < 0 {
				t.Fatalf("submit span with sync_ms %v", ms)
			}
			synced = append(synced, ok)
		}
	}
	if want := []bool{false, false, true, true, false, false}; !slices.Equal(synced, want) {
		t.Fatalf("submit spans carrying sync_ms: %v, want %v", synced, want)
	}
}

// TestFoldHistogramPerCheck: registry_fold_seconds gets one sample per
// chunk check. A 300-key batch from index 0 spans two chunks, a one-key
// submit observes it exactly once, and a replay of the 301 keys after
// the journal is lost observes it once per chunk again.
func TestFoldHistogramPerCheck(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r := openT(t, dir, Config{Metrics: reg})
	count := func(reg *obs.Registry) int64 { return reg.Snapshot().Histograms["registry_fold_seconds"].Count }
	keys := semiprimes(301, 12)
	if _, err := r.SubmitBatch(keys[:300]); err != nil {
		t.Fatal(err)
	}
	if n := count(reg); n != 2 {
		t.Fatalf("a 300-key batch: %d registry_fold_seconds samples, want 2", n)
	}
	mustSubmit(t, r, keys[300])
	if n := count(reg); n != 3 {
		t.Fatalf("after a one-key submit: %d samples, want 3", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	r = openT(t, dir, Config{Metrics: reg})
	defer r.Close()
	if n := count(reg); n != 2 {
		t.Fatalf("replaying 301 keys: %d samples, want 2", n)
	}
}
