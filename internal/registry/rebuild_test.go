package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// sameVerdicts asserts two verdict lists agree field for field.
func sameVerdicts(t *testing.T, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d verdicts, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Kind != w.Kind || g.G.Cmp(w.G) != 0 || len(g.Partners) != len(w.Partners) {
			t.Fatalf("verdict %d: %+v, want %+v", i, g, w)
		}
		for k := range g.Partners {
			gp, wp := g.Partners[k], w.Partners[k]
			if gp.Index != wp.Index || gp.Dup != wp.Dup || gp.Factor.Cmp(wp.Factor) != 0 {
				t.Fatalf("verdict %d partner %d: %+v, want %+v", i, k, gp, wp)
			}
		}
	}
}

// nodeVersions returns the header version of every node file under dir.
func nodeVersions(t *testing.T, dir string) map[string]int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "nodes", "*.node"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var hdr nodeHeader
		line, _, _ := bytes.Cut(data, []byte{'\n'})
		if err := json.Unmarshal(line, &hdr); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[hdr.V]++
	}
	return out
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// filedNodes returns the file names of the nodes of the forest over n
// leaves that span seedSpan leaves or more, sorted.
func filedNodes(n int) []string {
	var names []string
	for _, root := range rootsOf(n) {
		lo, hi := root.span()
		for l := root.level; filed(nodeKey{l, 0}); l-- {
			for idx := lo >> l; idx < hi>>l; idx++ {
				names = append(names, fmt.Sprintf("%02d-%08x.node", l, idx))
			}
		}
	}
	sort.Strings(names)
	return names
}

// nodeFiles returns the names of the node files under dir, sorted.
func nodeFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "nodes", "*.node"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	sort.Strings(names)
	return names
}

// TestColdRebuildAboveSeedSpan reopens a 594-key registry whose node
// files were deleted, so the first fold rebuilds the 512-leaf root
// through subprod.Build and keeps every interior node in the store's
// map (store.build). Fresh submissions must get the verdicts of an
// uninterrupted registry at pool widths 1 and 3, the broken set must
// match the batch oracle, and the files must be exactly the forest's
// nodes of seedSpan leaves or more, all bgrn2.
func TestColdRebuildAboveSeedSpan(t *testing.T) {
	moduli := weakModuli(t, 528, 96, 8, 21) // 528 keys plus 66 duplicates
	seed, fresh := moduli[:len(moduli)-16], moduli[len(moduli)-16:]

	live := openT(t, t.TempDir(), Config{})
	if _, err := live.SubmitBatch(seed); err != nil {
		t.Fatal(err)
	}
	want, err := live.SubmitBatch(fresh)
	if err != nil {
		t.Fatal(err)
	}
	live.Close()

	closed := t.TempDir()
	r := openT(t, closed, Config{})
	if _, err := r.SubmitBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	oracle := oracleBroken(t, moduli)
	for _, workers := range []int{1, 3} {
		dir := t.TempDir()
		copyDir(t, closed, dir)
		if err := os.RemoveAll(filepath.Join(dir, "nodes")); err != nil {
			t.Fatal(err)
		}
		r := openT(t, dir, Config{Workers: workers, Metrics: obs.NewRegistry()})
		got, err := r.SubmitBatch(fresh)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, got, want)
		diffBroken(t, r, oracle)
		if st := r.Stats(); st.Replayed != 0 || st.NodeBuilds == 0 {
			t.Fatalf("workers=%d: stats %+v, want no replay and some node builds", workers, st)
		}
		r.Close()
		want := filedNodes(len(moduli))
		if got := nodeFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: node files %v, want %v (the forest's nodes of %d leaves or more)", workers, got, want, seedSpan)
		}
		if versions := nodeVersions(t, dir); len(versions) != 1 || versions[nodeFileVersion] != len(want) {
			t.Fatalf("workers=%d: node files by version %v, want %d %s files only", workers, versions, len(want), nodeFileVersion)
		}
	}
}

// TestFoldPrefixResidue checks the fold against Π prefix mod n computed
// directly with math/big, at prefix lengths on both sides of the 256-
// and 512-leaf boundaries, with one tombstoned leaf, and for moduli
// that take the fold's zero exits: one divides a spine root, the other
// divides only the product of two roots.
func TestFoldPrefixResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prime := func() *big.Int { return rsakey.GeneratePrime(rng, 48) }
	primes := make([]*big.Int, 2*520)
	for i := range primes {
		primes[i] = prime()
	}
	moduli := make([]*big.Int, len(primes)/2)
	for i := range moduli {
		moduli[i] = new(big.Int).Mul(primes[2*i], primes[2*i+1])
	}
	r := openT(t, t.TempDir(), Config{})
	defer r.Close()
	if _, err := r.SubmitBatch(moduli); err != nil {
		t.Fatal(err)
	}
	const gone = 300
	if err := r.Remove(gone); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		n        *big.Int
		zeroFrom int // prefix length from which Π prefix ≡ 0 mod n; 0 = never
	}{
		{"fresh", new(big.Int).Mul(prime(), prime()), 0},
		{"shares a prime", new(big.Int).Mul(primes[2*5], prime()), 0},
		{"tombstoned key", moduli[gone], 0},
		{"divides a root", moduli[3], 4},
		{"split across roots", new(big.Int).Mul(primes[2*10], primes[2*512]), 513},
	}
	for _, tc := range cases {
		for _, m := range []int{255, 256, 257, 511, 512, 513} {
			want := big.NewInt(1)
			for j := 0; j < m; j++ {
				if j != gone {
					want.Mul(want, moduli[j])
				}
			}
			want.Mod(want, tc.n)
			if zero := tc.zeroFrom > 0 && m >= tc.zeroFrom; zero != (want.Sign() == 0) {
				t.Fatalf("%s, m=%d: fixture residue %v does not take the intended path", tc.name, m, want)
			}
			r.mu.Lock()
			got := new(big.Int).Set(r.foldPrefix(tc.n, m))
			r.mu.Unlock()
			if got.Cmp(want) != 0 {
				t.Errorf("%s, m=%d: fold residue %v, want %v", tc.name, m, got, want)
			}
		}
	}
}

// TestSpineMergeNodesCompact: every node a spine merge stores keeps at
// most a few words of spare capacity. The merges multiply into one
// retained scratch, whose Karatsuba buffer is about three times the
// product's length; storing the scratch's storage instead of a compact
// copy would keep that slack in the forest.
func TestSpineMergeNodesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := openT(t, t.TempDir(), Config{Metrics: obs.NewRegistry()})
	defer r.Close()
	limit := new(big.Int).Lsh(one, 1024)
	for i := 0; i < 64; i++ {
		n := new(big.Int).Rand(rng, limit)
		mustSubmit(t, r, n.SetBit(n, 1023, 1).SetBit(n, 0, 1))
	}
	if st := r.Stats(); st.NodeLoads != 0 || st.NodeBuilds != 0 {
		t.Fatalf("stats %+v: every node should still be the merge's own value", st)
	}
	for level := 1; level <= 6; level++ {
		for idx := 0; idx < 64>>level; idx++ {
			v := r.store.value(nodeKey{level, idx})
			if spare := cap(v.Bits()) - len(v.Bits()); spare > 4 {
				t.Fatalf("node (%d,%d): %d words with %d spare", level, idx, len(v.Bits()), spare)
			}
		}
	}
}

// TestParentEraDirectoryOpens opens a copy of testdata/bgrn1, a
// registry directory whose node files predate the bgrn2 format (packed
// 32-bit words). It was generated at commit b000163 with:
//
//	go run ./cmd/keygen -n 40 -bits 96 -weak 4 -seed 18 -o keys.txt
//	rsafactor watch -dir bgrn1 -addr 127.0.0.1:18089 &
//	curl --data-binary @keys.txt 'http://127.0.0.1:18089/submit?sync=1'
//	kill -INT %1
//
// Opening must replay nothing and leave the corpus log and journal
// byte-identical; the first submission must rebuild every old node
// rather than load it, and the broken set must be the journal's. No
// node of the 41-key forest spans seedSpan leaves, so the store reads
// and writes no file, and Compact deletes every old one.
func TestParentEraDirectoryOpens(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "bgrn1"), dir)
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	corpusLog, journal := read("corpus.log"), read("journal.jsonl")
	if v := nodeVersions(t, dir); v["bgrn1"] == 0 || len(v) != 1 {
		t.Fatalf("fixture node versions %v, want bgrn1 only", v)
	}

	r := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r.Close()
	if st := r.Stats(); st.Replayed != 0 || st.Keys != 40 {
		t.Fatalf("open stats %+v, want 40 keys and no replay", st)
	}
	if !bytes.Equal(read("corpus.log"), corpusLog) || !bytes.Equal(read("journal.jsonl"), journal) {
		t.Fatal("Open rewrote corpus.log or journal.jsonl")
	}

	// The broken set is the journal's findings, gcd-folded per index:
	// G_k <- gcd(n_k, G_k*g).
	var moduli []*big.Int
	for _, line := range strings.Fields(string(corpusLog)) {
		n, _ := new(big.Int).SetString(line, 16)
		moduli = append(moduli, n)
	}
	st, err := checkpoint.Load(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	fromJournal := map[int]*big.Int{}
	for _, rec := range st.Done {
		for _, f := range rec.Factors {
			g, _ := new(big.Int).SetString(f.P, 16)
			for _, idx := range []int{f.I, f.J} {
				cur, ok := fromJournal[idx]
				if !ok {
					fromJournal[idx] = new(big.Int).Set(g)
					continue
				}
				cur.GCD(nil, nil, moduli[idx], cur.Mul(cur, g))
			}
		}
	}
	if len(fromJournal) == 0 {
		t.Fatal("fixture journal records no findings")
	}
	diffBroken(t, r, fromJournal)
	diffBroken(t, r, oracleBroken(t, moduli))

	// A key sharing a planted prime (keys 9 and 14 share cdeaa64bfc4d)
	// folds and descends the whole forest.
	shared, _ := new(big.Int).SetString("cdeaa64bfc4d", 16)
	n := new(big.Int).Mul(shared, rsakey.GeneratePrime(rand.New(rand.NewSource(5)), 48))
	v := mustSubmit(t, r, n)
	prefix := big.NewInt(1)
	for _, m := range moduli {
		prefix.Mul(prefix, m)
	}
	if want := new(big.Int).GCD(nil, nil, n, prefix); v.Kind != Shared || v.G.Cmp(want) != 0 ||
		len(v.Partners) != 2 || v.Partners[0].Index != 9 || v.Partners[1].Index != 14 {
		t.Fatalf("verdict %+v, want Shared with G=%v and partners 9, 14", v, want)
	}
	if st := r.Stats(); st.NodeLoads != 0 || st.NodeBuilds == 0 {
		t.Fatalf("stats %+v: bgrn1 nodes must be rebuilt, never loaded", st)
	}
	if _, err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := nodeFiles(t, dir); len(got) != 0 {
		t.Fatalf("node files after Compact: %v, want none (every node spans fewer than %d leaves)", got, seedSpan)
	}
}
