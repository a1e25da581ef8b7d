package registry

import (
	"bytes"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

func b(v int64) *big.Int { return big.NewInt(v) }

func openT(t testing.TB, dir string, cfg Config) *Registry {
	t.Helper()
	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustSubmit(t *testing.T, r *Registry, n *big.Int) Verdict {
	t.Helper()
	v, err := r.Submit(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVerdicts drives the four verdict kinds over handcrafted moduli of
// known factorization.
func TestVerdicts(t *testing.T) {
	r := openT(t, t.TempDir(), Config{Metrics: obs.NewRegistry()})
	defer r.Close()

	// 15 = 3·5 into an empty registry: clean.
	v := mustSubmit(t, r, b(15))
	if v.Kind != Clean || v.Index != 0 || v.G.Cmp(one) != 0 {
		t.Fatalf("first key: %+v", v)
	}
	// 77 = 7·11: clean.
	if v = mustSubmit(t, r, b(77)); v.Kind != Clean || v.Index != 1 {
		t.Fatalf("second key: %+v", v)
	}
	// 21 = 3·7 shares 3 with key 0 and 7 with key 1.
	v = mustSubmit(t, r, b(21))
	if v.Kind != Shared || v.Index != 2 || len(v.Partners) != 2 {
		t.Fatalf("shared key: %+v", v)
	}
	if v.Partners[0].Index != 0 || v.Partners[0].Factor.Cmp(b(3)) != 0 || v.Partners[0].Dup {
		t.Fatalf("partner 0: %+v", v.Partners[0])
	}
	if v.Partners[1].Index != 1 || v.Partners[1].Factor.Cmp(b(7)) != 0 {
		t.Fatalf("partner 1: %+v", v.Partners[1])
	}
	if v.G.Cmp(b(21)) != 0 { // gcd(21, 15·77·21-product prefix) = 21
		t.Fatalf("G = %v", v.G)
	}
	// A duplicate of key 0 — which now also shares 3 with key 2.
	v = mustSubmit(t, r, b(15))
	if v.Kind != Duplicate || v.Index != 3 || len(v.Partners) != 2 {
		t.Fatalf("duplicate: %+v", v)
	}
	if !v.Partners[0].Dup || v.Partners[0].Index != 0 || v.Partners[0].Factor.Cmp(b(15)) != 0 {
		t.Fatalf("dup partner: %+v", v.Partners[0])
	}
	if v.Partners[1].Dup || v.Partners[1].Index != 2 || v.Partners[1].Factor.Cmp(b(3)) != 0 {
		t.Fatalf("dup's shared partner: %+v", v.Partners[1])
	}
	// Malformed: zero and even are rejected without consuming an index.
	if v = mustSubmit(t, r, b(0)); v.Kind != Malformed || v.Index != -1 || v.Reason == "" {
		t.Fatalf("zero: %+v", v)
	}
	if v = mustSubmit(t, r, b(1024)); v.Kind != Malformed || v.Index != -1 {
		t.Fatalf("even: %+v", v)
	}
	// Clean again: 221 = 13·17.
	if v = mustSubmit(t, r, b(221)); v.Kind != Clean || v.Index != 4 {
		t.Fatalf("clean after rejects: %+v", v)
	}
	if r.Len() != 5 {
		t.Fatalf("Len() = %d", r.Len())
	}

	broken := r.Broken()
	want := map[int]int64{0: 15, 1: 7, 2: 21, 3: 15}
	if len(broken) != len(want) {
		t.Fatalf("Broken() = %+v", broken)
	}
	for _, bk := range broken {
		if bk.G.Cmp(b(want[bk.Index])) != 0 {
			t.Fatalf("broken[%d].G = %v, want %d", bk.Index, bk.G, want[bk.Index])
		}
	}
}

// TestSubmitMaxKeyBits: a 16384-bit modulus is accepted and a 16385-bit
// one gets a Malformed verdict without being appended or journaled: the
// corpus log and the journal grow by the accepted keys only, and a
// reopened registry holds exactly those.
func TestSubmitMaxKeyBits(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	longest := new(big.Int).Lsh(one, 16383)
	longest.Add(longest, one) // 2^16383 + 1: 16384 bits, odd
	tooLong := new(big.Int).Lsh(one, 16384)
	tooLong.Add(tooLong, one) // 16385 bits
	if v := mustSubmit(t, r, tooLong); v.Kind != Malformed || v.Index != -1 || v.Reason != "longer than 16384 bits" {
		t.Fatalf("16385-bit key: %+v", v)
	}
	if v := mustSubmit(t, r, longest); v.Kind == Malformed || v.Index != 0 {
		t.Fatalf("16384-bit key: %+v", v)
	}
	vs, err := r.SubmitBatch([]*big.Int{b(15), tooLong, b(21)})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Index != 1 || vs[1].Kind != Malformed || vs[2].Index != 2 || vs[2].Kind != Shared {
		t.Fatalf("batch with an over-long key: %+v", vs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus.log", "journal.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), tooLong.Text(16)) {
			t.Fatalf("%s holds the over-long key", name)
		}
	}
	r = openT(t, dir, Config{})
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("reopened registry holds %d keys, want 3", r.Len())
	}
}

// TestRestartIdentity: close + reopen replays to identical state without
// recomputing any verdict, and the registry keeps accepting keys.
func TestRestartIdentity(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	for _, n := range []int64{15, 77, 21, 15, 221} {
		mustSubmit(t, r, b(n))
	}
	before := r.Broken()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r2.Close()
	if st := r2.Stats(); st.Replayed != 0 {
		t.Fatalf("clean restart recomputed %d verdicts", st.Replayed)
	}
	after := r2.Broken()
	if len(after) != len(before) {
		t.Fatalf("broken %d != %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Index != before[i].Index || after[i].G.Cmp(before[i].G) != 0 {
			t.Fatalf("broken[%d]: %+v != %+v", i, after[i], before[i])
		}
	}
	// 33 = 3·11 shares 3 with keys 0,2,3 and 11 with key 1.
	v := mustSubmit(t, r2, b(33))
	if v.Kind != Shared || len(v.Partners) != 4 {
		t.Fatalf("post-restart submit: %+v", v)
	}
}

// TestTornCorpusLine: a crash mid-append leaves a torn final corpus
// line; the key was never acknowledged, so Open drops it.
func TestTornCorpusLine(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	mustSubmit(t, r, b(15))
	mustSubmit(t, r, b(77))
	r.Close()

	f, err := os.OpenFile(filepath.Join(dir, "corpus.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("abc"); err != nil { // torn: no newline
		t.Fatal(err)
	}
	f.Close()

	r2 := openT(t, dir, Config{})
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("Len() = %d after torn line", r2.Len())
	}
	// The truncated log accepts appends cleanly.
	if v := mustSubmit(t, r2, b(21)); v.Index != 2 || len(v.Partners) != 2 {
		t.Fatalf("submit after truncation: %+v", v)
	}
}

// TestCrashBeforeJournal: the corpus line landed but the journal record
// did not (crash between the two syncs). Open recomputes the verdict
// and ends byte-identical to the uninterrupted run.
func TestCrashBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	for _, n := range []int64{15, 77, 21} {
		mustSubmit(t, r, b(n))
	}
	want := r.Broken()
	r.Close()

	// Drop the last journal record, keeping the corpus line.
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := len(data)
	for i := len(data) - 2; i >= 0; i-- {
		if data[i] == '\n' {
			cut = i + 1
			lines++
			break
		}
	}
	if lines != 1 {
		t.Fatal("journal too short to truncate")
	}
	if err := os.WriteFile(jpath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r2.Close()
	if st := r2.Stats(); st.Replayed != 1 {
		t.Fatalf("Replayed = %d, want 1", st.Replayed)
	}
	got := r2.Broken()
	if len(got) != len(want) {
		t.Fatalf("broken %+v != %+v", got, want)
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].G.Cmp(want[i].G) != 0 {
			t.Fatalf("broken[%d]: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestOpenFailureClosesFiles: an Open that fails closes every file it
// had opened. A journal path that is a directory fails after both logs
// are open; a journal record naming a later partner passes the chain
// check and fails replay after the journal is open too. Repeating
// either failure must not grow the process's open file count.
func TestOpenFailureClosesFiles(t *testing.T) {
	fds := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files")
		}
		return len(des)
	}
	fds()

	noJournal := t.TempDir()
	if err := os.Mkdir(filepath.Join(noJournal, "journal.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}

	badRecord := t.TempDir()
	r := openT(t, badRecord, Config{})
	mustSubmit(t, r, b(15))
	if v := mustSubmit(t, r, b(21)); v.Kind != Shared {
		t.Fatalf("21 after 15: %v, want shared", v.Kind)
	}
	r.Close()
	jpath := filepath.Join(badRecord, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"i":1,"j":0`), []byte(`"i":1,"j":1`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("journal has no finding of key 1 with key 0:\n%s", data)
	}
	if err := os.WriteFile(jpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{noJournal, badRecord} {
		if _, err := Open(dir, Config{}); err == nil {
			t.Fatalf("%s: Open succeeded", dir)
		}
		before := fds()
		for i := 0; i < 20; i++ {
			if _, err := Open(dir, Config{}); err == nil {
				t.Fatalf("%s: Open succeeded", dir)
			}
		}
		if after := fds(); after > before {
			t.Fatalf("%s: 20 failed Opens left %d more open files", dir, after-before)
		}
	}
}

// TestRemove: a tombstoned key disappears from every future product and
// verdict, durably.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	mustSubmit(t, r, b(15)) // 3·5
	mustSubmit(t, r, b(77)) // 7·11
	if err := r.Remove(0); err != nil {
		t.Fatal(err)
	}
	// 21 = 3·7 no longer shares with removed key 0; only 7 with key 1.
	v := mustSubmit(t, r, b(21))
	if v.Kind != Shared || len(v.Partners) != 1 || v.Partners[0].Index != 1 {
		t.Fatalf("after remove: %+v", v)
	}
	if v.G.Cmp(b(7)) != 0 {
		t.Fatalf("G = %v, want 7", v.G)
	}
	r.Close()

	// The tombstone survives restart.
	r2 := openT(t, dir, Config{})
	defer r2.Close()
	v = mustSubmit(t, r2, b(15))
	if v.Kind != Shared || len(v.Partners) != 1 || v.Partners[0].Index != 2 {
		t.Fatalf("duplicate of removed key after restart: %+v", v)
	}
	if err := r2.Remove(99); err == nil {
		t.Fatal("out-of-range Remove accepted")
	}
}

// semiprimes returns count products of two random 48-bit primes,
// deterministic in seed. 48-bit primes never share 3, 5, 7, 11 or 13
// with the hand-picked moduli the tests mix them with.
func semiprimes(count int, seed int64) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, count)
	for i := range out {
		out[i] = new(big.Int).Mul(rsakey.GeneratePrime(rng, 48), rsakey.GeneratePrime(rng, 48))
	}
	return out
}

// TestNodeFileCorruption: a damaged node file is rebuilt, never trusted.
// The store files only nodes of seedSpan leaves or more, so the corpus
// is 256 keys: four hand-picked ones and 252 random semiprimes.
func TestNodeFileCorruption(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	keys := append([]*big.Int{b(15), b(77), b(221), b(13)}, semiprimes(seedSpan-4, 3)...)
	if _, err := r.SubmitBatch(keys); err != nil {
		t.Fatal(err)
	}
	r.Close()

	nodes, err := filepath.Glob(filepath.Join(dir, "nodes", "*.node"))
	if err != nil || len(nodes) == 0 {
		t.Fatalf("no node files: %v", err)
	}
	for _, p := range nodes {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r2.Close()
	// 33 = 3·11 shares 3 with key 0 (15=3·5) and 11 with key 1 (77=7·11).
	v := mustSubmit(t, r2, b(33))
	if v.Kind != Shared || len(v.Partners) != 2 {
		t.Fatalf("after node corruption: %+v", v)
	}
	if st := r2.Stats(); st.NodeBuilds == 0 {
		t.Fatal("corrupted nodes were not rebuilt")
	}
}

// TestNodeFilesFromSeedSpan: the store writes a file only for a node of
// seedSpan leaves or more. 255 keys leave nodes/ empty (the largest
// node spans 128); the 256th key's spine merges end in the node over
// leaves [0, 256), the one file.
func TestNodeFilesFromSeedSpan(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	defer r.Close()
	keys := semiprimes(seedSpan, 5)
	if _, err := r.SubmitBatch(keys[:seedSpan-1]); err != nil {
		t.Fatal(err)
	}
	list := func() []string {
		des, err := os.ReadDir(filepath.Join(dir, "nodes"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}
	if got := list(); len(got) != 0 {
		t.Fatalf("%d keys left node files %v, want none", seedSpan-1, got)
	}
	mustSubmit(t, r, keys[seedSpan-1])
	if got := list(); len(got) != 1 || got[0] != "08-00000000.node" {
		t.Fatalf("%d keys left node files %v, want 08-00000000.node only", seedSpan, got)
	}
}

// TestCompact: journal duplicates collapse, orphan node files go away,
// and the registry keeps working.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	r := openT(t, dir, Config{})
	for _, n := range []int64{15, 77, 21} {
		mustSubmit(t, r, b(n))
	}
	// Plant an orphan node file and a stale temp.
	orphan := filepath.Join(dir, "nodes", "05-00000007.node")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "nodes", "01-00000000.node.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removedN, err := r.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removedN < 2 {
		t.Fatalf("Compact removed %d, want >= 2 (orphan + temp)", removedN)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan node file survived")
	}
	if v := mustSubmit(t, r, b(33)); v.Kind != Shared {
		t.Fatalf("submit after compact: %+v", v)
	}
	r.Close()

	r2 := openT(t, dir, Config{})
	defer r2.Close()
	if r2.Len() != 4 {
		t.Fatalf("Len() = %d after compacted restart", r2.Len())
	}
}

// TestCompactFailureKeepsJournal: a Compact that fails leaves the
// registry on a live journal or on none at all, never on a closed one.
// With journal.jsonl.compact a directory the rewrite fails and the
// untouched journal is reopened, so a later Submit is acknowledged and
// survives a reopen. With journal.jsonl itself a directory the reopen
// fails too, and Submit and SubmitBatch fail before writing anything;
// once the journal is back, Compact reopens it.
func TestCompactFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	cpath := filepath.Join(dir, "corpus.log")
	r := openT(t, dir, Config{})
	mustSubmit(t, r, b(15))

	if err := os.Mkdir(jpath+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Compact(); err == nil {
		t.Fatal("Compact succeeded over a directory")
	}
	if v := mustSubmit(t, r, b(21)); v.Kind != Shared || v.Index != 1 {
		t.Fatalf("submit after failed Compact: %+v", v)
	}
	if err := os.Remove(jpath + ".compact"); err != nil {
		t.Fatal(err)
	}

	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	corpusBefore, journalBefore := read(cpath), read(jpath)
	if err := os.Rename(jpath, jpath+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(jpath, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Compact(); err == nil {
		t.Fatal("Compact succeeded with the journal a directory")
	}
	if v, err := r.Submit(b(35)); err == nil {
		t.Fatalf("Submit without a journal acknowledged %+v", v)
	}
	if vs, err := r.SubmitBatch([]*big.Int{b(35), b(77)}); err == nil {
		t.Fatalf("SubmitBatch without a journal acknowledged %+v", vs)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d after failed submits, want 2", r.Len())
	}
	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(jpath+".aside", jpath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(cpath), corpusBefore) || !bytes.Equal(read(jpath), journalBefore) {
		t.Fatal("failed submits wrote to corpus.log or journal.jsonl")
	}

	if _, err := r.Compact(); err != nil {
		t.Fatalf("Compact with the journal back: %v", err)
	}
	if v := mustSubmit(t, r, b(35)); v.Kind != Shared || v.Index != 2 {
		t.Fatalf("submit after recovering Compact: %+v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer r2.Close()
	if st := r2.Stats(); st.Keys != 3 || st.Replayed != 0 {
		t.Fatalf("reopen: %d keys, %d replayed; want 3 keys, none replayed", st.Keys, st.Replayed)
	}
}

// TestRootsOf: spans of the spine roots partition [0, n) in order.
func TestRootsOf(t *testing.T) {
	for n := 0; n <= 300; n++ {
		next := 0
		for _, k := range rootsOf(n) {
			lo, hi := k.span()
			if lo != next || hi <= lo {
				t.Fatalf("n=%d: root %+v spans [%d,%d), want lo=%d", n, k, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("n=%d: roots cover [0,%d)", n, next)
		}
	}
}

// TestAncestorsOf: each listed node contains the leaf, lives in the
// forest, and the list covers every level from the leaf's root down.
func TestAncestorsOf(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 100} {
		for i := 0; i < n; i++ {
			anc := ancestorsOf(i, n)
			for _, k := range anc {
				lo, hi := k.span()
				if i < lo || i >= hi {
					t.Fatalf("n=%d i=%d: ancestor %+v misses leaf", n, i, k)
				}
				if hi > n {
					t.Fatalf("n=%d i=%d: ancestor %+v outside forest", n, i, k)
				}
			}
			// The leaf's root subtree has some level k; ancestors are k..1.
			if len(anc) > 0 && anc[0].level != len(anc) {
				t.Fatalf("n=%d i=%d: ancestors %+v not contiguous", n, i, anc)
			}
		}
	}
}
