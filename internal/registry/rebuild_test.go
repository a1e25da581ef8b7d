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
	"slices"
	"sort"
	"strings"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
	"bulkgcd/internal/subprod"
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
// and 512-leaf boundaries and over every key, with one tombstoned leaf,
// and for moduli that take the fold's zero exits: one divides a spine
// root, the other divides only the product of two roots. Every case runs
// at pool widths 1, 2, 3 and 7, set explicitly because the pool starts
// min(width, pieces) goroutines whatever GOMAXPROCS is; from 512 keys on
// the fold cuts its roots into pieces at every width above 1, where the
// cut floor lets the 512-key root split (not for the chunk-sized n). For
// every n the 512-key root is long enough for mod to fold it and the
// 8-key root after it is divided by one QuoRem, which the fixture
// checks, so both paths run at every width; the one-word n and the
// chunk-sized n (the product of 12 keys, as the fold of a chunk divides
// by) are the two ends.
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
	const gone = 300

	// The two ends draw from their own source, so the other cases keep
	// their moduli.
	ends := rand.New(rand.NewSource(32))
	chunk := big.NewInt(1)
	for range 12 {
		chunk.Mul(chunk, new(big.Int).Mul(rsakey.GeneratePrime(ends, 48), rsakey.GeneratePrime(ends, 48)))
	}
	oneWord := new(big.Int).Mul(rsakey.GeneratePrime(ends, 31), rsakey.GeneratePrime(ends, 31))
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
		{"one word", oneWord, 0},
		{"chunk-sized", chunk, 0},
	}
	live := slices.Clone(moduli[:512])
	live[gone] = one
	halves := [2]*big.Int{subprod.Product(live[:256]), subprod.Product(live[256:])}
	root512, root8 := new(big.Int).Mul(halves[0], halves[1]), subprod.Product(moduli[512:520])
	// cuts: the cut floor, foldLen(n), lets the 512-key root split.
	cuts := func(n *big.Int) bool {
		return len(halves[0].Bits()) >= foldLen(n) && len(halves[1].Bits()) >= foldLen(n)
	}
	prefixes := []int{255, 256, 257, 511, 512, 513, 520}
	wants := make([][]*big.Int, len(cases))
	for c, tc := range cases {
		if len(root512.Bits()) < foldLen(tc.n) || len(root8.Bits()) >= foldLen(tc.n) {
			t.Fatalf("%s: roots of %d and %d words around a fold threshold of %d, want the first folded and the second divided", tc.name, len(root512.Bits()), len(root8.Bits()), foldLen(tc.n))
		}
		for _, m := range prefixes {
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
			wants[c] = append(wants[c], want)
		}
	}

	for _, workers := range []int{1, 2, 3, 7} {
		r := openT(t, t.TempDir(), Config{Workers: workers})
		if _, err := r.SubmitBatch(moduli); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(gone); err != nil {
			t.Fatal(err)
		}
		for c, tc := range cases {
			for p, m := range prefixes {
				r.mu.Lock()
				got := new(big.Int).Set(r.foldPrefix(tc.n, m))
				pieces := len(r.pieces)
				r.mu.Unlock()
				if got.Cmp(wants[c][p]) != 0 {
					t.Errorf("workers=%d, %s, m=%d: fold residue %v, want %v", workers, tc.name, m, got, wants[c][p])
				}
				if workers > 1 && m >= 512 && cuts(tc.n) && pieces < 2 {
					t.Errorf("workers=%d, %s, m=%d: the fold used %d piece, want the root cut", workers, tc.name, m, pieces)
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCutPieces checks the fold's cut alone, with every node of a
// 4096-key forest resident in the store's map (as the spine merges left
// it) and n one key long. For every prefix length m and pool widths 2,
// 3, 4 and 7, the pieces must cover each leaf of [0, m) exactly once,
// every piece that is not a spine root must be at least the floor (8×
// n's words) long, and, from 256 keys on, handing the pieces out
// largest first to the least-loaded worker must load no worker with
// more than 1.5·total/W words. After a reopen only the spine roots are
// resident, so the cut must stop at them without loading or rebuilding
// a node.
func TestCutPieces(t *testing.T) {
	const keys = 4096
	moduli := semiprimes(keys+1, 43)
	n := moduli[keys]
	floor := 8 * len(n.Bits())
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	if _, err := r.SubmitBatch(moduli[:keys]); err != nil {
		t.Fatal(err)
	}
	words := func(k nodeKey) int { return len(r.store.value(k).Bits()) }

	for m := 1; m <= keys; m++ {
		roots := rootsOf(m)
		total := 0
		for _, k := range roots {
			total += words(k)
		}
		for _, w := range []int{2, 3, 4, 7} {
			pieces := append([]nodeKey(nil), r.cut(m, floor, w)...)
			sort.Slice(pieces, func(a, b int) bool { return pieces[a].index<<pieces[a].level < pieces[b].index<<pieces[b].level })
			next := 0
			for _, k := range pieces {
				lo, hi := k.span()
				if lo != next {
					t.Fatalf("m=%d, W=%d: piece %v starts at leaf %d, want %d", m, w, k, lo, next)
				}
				next = hi
				if !slices.Contains(roots, k) && words(k) < floor {
					t.Fatalf("m=%d, W=%d: piece %v has %d words, below the floor of %d", m, w, k, words(k), floor)
				}
			}
			if next != m {
				t.Fatalf("m=%d, W=%d: pieces end at leaf %d", m, w, next)
			}
			if m < 256 {
				continue
			}
			sort.Slice(pieces, func(a, b int) bool { return words(pieces[a]) > words(pieces[b]) })
			load := make([]int, w)
			for _, k := range pieces {
				load[slices.Index(load, slices.Min(load))] += words(k)
			}
			if busiest := slices.Max(load); 2*w*busiest > 3*total {
				t.Fatalf("m=%d, W=%d: busiest worker folds %d of %d words, over 1.5·total/W", m, w, busiest, total)
			}
		}
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r.Close()
	if pieces := r.cut(keys, floor, 2); fmt.Sprint(pieces) != fmt.Sprint(rootsOf(keys)) {
		t.Fatalf("cut after a reopen: %v, want the spine roots %v", pieces, rootsOf(keys))
	}
	if st := r.Stats(); st.NodeLoads != 1 || st.NodeBuilds != 0 {
		t.Fatalf("stats %+v: the cut should load the root's file and nothing else", st)
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
