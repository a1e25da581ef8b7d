package main

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkgcd/internal/corpus"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/pemkeys"
	"bulkgcd/internal/rsakey"
)

// writeCorpus creates a corpus file (and ground truth) in dir.
func writeCorpus(t *testing.T, dir string, count, bits, weak int, seed int64) (string, string) {
	t.Helper()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{
		Count: count, Bits: bits, WeakPairs: weak, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(dir, "corpus.txt")
	f, err := os.Create(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.Write(f, c.Moduli(), "test"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tp := filepath.Join(dir, "truth.txt")
	tf, err := os.Create(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range c.Planted {
		fmt.Fprintf(tf, "%d %d %x\n", pp.I, pp.J, pp.P)
	}
	tf.Close()
	return cp, tp
}

func TestRunBreaksWeakCorpus(t *testing.T) {
	dir := t.TempDir()
	cp, tp := writeCorpus(t, dir, 12, 128, 2, 7)
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-truth", tp}, nil, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if got := strings.Count(s, "BROKEN key"); got != 4 {
		t.Fatalf("broke %d keys, want 4:\n%s", got, s)
	}
	if !strings.Contains(s, "verification: all 2 planted pairs recovered") {
		t.Fatalf("truth verification missing:\n%s", s)
	}
	if !strings.Contains(s, "summary: 4 broken") {
		t.Fatalf("summary missing:\n%s", s)
	}
}

// TestRunLanesKernel: the per-pair executor follows the algorithm, so
// the default Approximate scans (lane kernel) and a Binary scan (scalar
// kernel) break the same planted keys, and the removed -kernel and
// -lanewidth flags are usage errors.
func TestRunLanesKernel(t *testing.T) {
	dir := t.TempDir()
	cp, tp := writeCorpus(t, dir, 12, 128, 2, 7)
	for _, args := range [][]string{
		{"-engine", "pairs"}, {"-engine", "hybrid"}, {"-engine", "pairs", "-alg", "binary"},
	} {
		var out bytes.Buffer
		args = append([]string{"-in", cp, "-truth", tp}, args...)
		if err := run(context.Background(), args, nil, &out, &bytes.Buffer{}); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "verification: all 2 planted pairs recovered") {
			t.Fatalf("%v: missed planted pairs:\n%s", args, out.String())
		}
	}

	var sink bytes.Buffer
	for _, flag := range [][]string{{"-kernel", "lanes"}, {"-lanewidth", "4"}} {
		err := run(context.Background(), append([]string{"-in", cp}, flag...), nil, &sink, &sink)
		if code := exitCodeOf(err); code != exitUsage {
			t.Errorf("%v: exit code %d (%v), want usage error %d", flag, code, err, exitUsage)
		}
	}
}

func TestRunFromStdin(t *testing.T) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 6, Bits: 128, WeakPairs: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := corpus.Write(&in, c.Moduli(), ""); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-v"}, &in, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BROKEN key") {
		t.Fatalf("no break reported:\n%s", out.String())
	}
}

func TestRunAllAlgorithmsAndBatch(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 10, 128, 1, 9)
	for _, alg := range []string{"original", "fast", "binary", "fastbinary", "approximate"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-in", cp, "-alg", alg, "-no-early"}, nil, &out, &bytes.Buffer{}); err != nil {
			t.Fatalf("alg %s: %v", alg, err)
		}
		if strings.Count(out.String(), "BROKEN key") != 2 {
			t.Fatalf("alg %s: wrong break count:\n%s", alg, out.String())
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-engine=batch"}, nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "BROKEN key") != 2 {
		t.Fatalf("batch mode wrong break count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "method: batch GCD") {
		t.Fatalf("batch header missing:\n%s", out.String())
	}
}

// TestRunBatchWorkers: batch mode honors -workers, reports the pool
// size, and finds the same keys at every pool size (the key lines of the
// output are identical; only the timing line may differ).
func TestRunBatchWorkers(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 12, 128, 2, 17)
	keyLines := func(s string) string {
		var kept []string
		for _, ln := range strings.Split(s, "\n") {
			if !strings.HasPrefix(ln, "method:") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	var base string
	for _, w := range []string{"1", "4"} {
		var out, errs bytes.Buffer
		if err := run(context.Background(), []string{"-in", cp, "-engine=batch", "-workers", w, "-v"}, nil, &out, &errs); err != nil {
			t.Fatalf("workers %s: %v", w, err)
		}
		if !strings.Contains(out.String(), w+" workers") {
			t.Fatalf("workers %s: pool size not reported:\n%s", w, out.String())
		}
		if !strings.Contains(errs.String(), "tree ops") {
			t.Fatalf("workers %s: batch progress missing:\n%s", w, errs.String())
		}
		if base == "" {
			base = keyLines(out.String())
			continue
		}
		if got := keyLines(out.String()); got != base {
			t.Fatalf("workers %s: findings differ:\n%s\nvs\n%s", w, got, base)
		}
	}
}

func TestRunCleanCorpus(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 6, 128, 0, 10)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp}, nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no weak keys found") {
		t.Fatalf("expected clean report:\n%s", out.String())
	}
}

func TestRunTruthVerificationFailure(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 8, 128, 0, 11) // clean corpus...
	bogus := filepath.Join(dir, "bogus.txt")
	// ... but the truth file claims a planted pair: verification must fail.
	if err := os.WriteFile(bogus, []byte("0 1 abcdef123457\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", cp, "-truth", bogus}, nil, &out, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("expected verification failure, got %v", err)
	}
	if !strings.Contains(out.String(), "MISSED") {
		t.Fatalf("missing MISSED report:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := run(context.Background(), []string{"-alg", "nonsense", "-in", "x"}, nil, &sink, &sink); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run(context.Background(), []string{"-in", "/nonexistent"}, nil, &sink, &sink); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(context.Background(), []string{"-badflag"}, nil, &sink, &sink); err == nil {
		t.Error("unknown flag accepted")
	}
	in := strings.NewReader("ff\n") // single modulus
	if err := run(context.Background(), nil, in, &sink, &sink); err == nil {
		t.Error("single-modulus corpus accepted")
	}
	in = strings.NewReader("zz\n")
	if err := run(context.Background(), nil, in, &sink, &sink); err == nil {
		t.Error("bad corpus accepted")
	}
}

// TestRunPEMWorkflow: the real-world pipeline - PEM public keys in,
// recovered private keys out as PEM files that crypto/x509 parses.
func TestRunPEMWorkflow(t *testing.T) {
	dir := t.TempDir()
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 8, Bits: 256, WeakPairs: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pemPath := filepath.Join(dir, "keys.pem")
	f, err := os.Create(pemPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range c.Keys {
		if err := pemkeys.WritePublicKey(f, k.N.ToBig(), k.E); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	emitDir := filepath.Join(dir, "broken")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", pemPath, "-emit", emitDir}, nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "emitted 2 private keys") {
		t.Fatalf("emit summary missing:\n%s", out.String())
	}
	// The emitted PEMs must parse and decrypt.
	pp := c.Planted[0]
	for _, idx := range []int{pp.I, pp.J} {
		checkEmitted(t, emitDir, idx, c.Keys[idx].N.ToBig(), rsakey.DefaultExponent)
	}
}

// checkEmitted reads key<idx>.pem from dir and fails unless it parses as
// PKCS#1, carries modulus n and exponent e, passes crypto/rsa's Validate,
// and decrypts a ciphertext made with (n, e). Validate alone accepts a
// wrong d.
func checkEmitted(t *testing.T, dir string, idx int, n *big.Int, e int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("key%d.pem", idx)))
	if err != nil {
		t.Fatal(err)
	}
	block, _ := pem.Decode(data)
	if block == nil {
		t.Fatalf("key%d.pem is not PEM", idx)
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if key.N.Cmp(n) != 0 || key.E != e {
		t.Fatalf("key%d.pem has (n, e) = (%x, %d), want (%x, %d)", idx, key.N, key.E, n, e)
	}
	if err := key.Validate(); err != nil {
		t.Fatalf("key%d.pem invalid: %v", idx, err)
	}
	m := big.NewInt(0xC0FFEE)
	c := new(big.Int).Exp(m, big.NewInt(int64(e)), n)
	if got := new(big.Int).Exp(c, key.D, n); got.Cmp(m) != 0 {
		t.Fatalf("key%d.pem does not decrypt: got %v, want %v", idx, got, m)
	}
}

// runEmit writes moduli as a hex corpus, runs rsafactor -emit over it,
// and returns the output and the directory the keys went to.
func runEmit(t *testing.T, moduli []*mpnat.Nat) (string, string) {
	t.Helper()
	dir := t.TempDir()
	cp := filepath.Join(dir, "corpus.txt")
	var in bytes.Buffer
	if err := corpus.Write(&in, moduli, "test"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, in.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	emitDir := filepath.Join(dir, "broken")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", cp, "-emit", emitDir}, nil, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String(), emitDir
}

// TestRunEmitSkipsCompositeFactors: a = p*q and b = p*r*s share p, so both
// are factored, but b's cofactor r*s is composite. The report prints no d
// for b, and -emit must write no key for it: a key assembled from a
// composite factor passes Validate and does not decrypt.
func TestRunEmitSkipsCompositeFactors(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	p, q := rsakey.GeneratePrime(r, 128), rsakey.GeneratePrime(r, 128)
	rs := new(big.Int).Mul(rsakey.GeneratePrime(r, 80), rsakey.GeneratePrime(r, 80))
	a := new(big.Int).Mul(p, q)
	b := new(big.Int).Mul(p, rs)
	moduli := []*mpnat.Nat{mpnat.FromBig(a), mpnat.FromBig(b)}
	for len(moduli) < 5 {
		k, err := rsakey.GenerateKey(r, 256)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, k.N)
	}
	s, emitDir := runEmit(t, moduli)
	for _, want := range []string{
		"d = (not recovered: factors not two distinct primes",
		"key 1: cannot emit (factors not both prime)",
		"emitted 1 private keys",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output lacks %q:\n%s", want, s)
		}
	}
	if _, err := os.Stat(filepath.Join(emitDir, "key1.pem")); !os.IsNotExist(err) {
		t.Fatalf("key1.pem written for a composite factor (stat err %v)", err)
	}
	checkEmitted(t, emitDir, 0, a, rsakey.DefaultExponent)
}

// TestRunEmitSquareModulus: in the corpus {p², p·q, s·u} both p² and p·q
// are factored, and both factors of p² pass the primality test, but p = q
// admits no PKCS#1 key: -emit prints why and writes key1.pem alone.
func TestRunEmitSquareModulus(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	prime := func() *big.Int { return rsakey.GeneratePrime(r, 128) }
	p, q, s, u := prime(), prime(), prime(), prime()
	pq := new(big.Int).Mul(p, q)
	moduli := []*mpnat.Nat{
		mpnat.FromBig(new(big.Int).Mul(p, p)), mpnat.FromBig(pq), mpnat.FromBig(new(big.Int).Mul(s, u)),
	}
	out, emitDir := runEmit(t, moduli)
	for _, want := range []string{
		"BROKEN key 0 (found with key 1)",
		"d = (not recovered: factors not two distinct primes",
		"key 0: cannot emit (rsakey: p = q",
		"emitted 1 private keys",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(emitDir, "key0.pem")); !os.IsNotExist(err) {
		t.Fatalf("key0.pem written for n = p² (stat err %v)", err)
	}
	checkEmitted(t, emitDir, 1, pq, rsakey.DefaultExponent)
}

// TestRunEmitOwnExponent: a PEM key carries its own exponent (e = 17
// here), and -emit re-derives d under it rather than the attack's 65537.
// The second corpus shares a prime p with 65537 | p−1: 65537 is not
// invertible, so the report gives both keys no D, and -emit must still
// test their factors itself and write both keys under e = 17.
func TestRunEmitOwnExponent(t *testing.T) {
	const e = 17
	r := rand.New(rand.NewSource(15))
	for _, tc := range []struct {
		name string
		p    *big.Int
		noD  int // keys the report prints without a d
	}{
		{"random-p", rsakey.GeneratePrime(r, 128), 0},
		{"65537-divides-p-1", primeOneModF4(r, 128), 2},
	} {
		// A pair sharing p, both invertible under e.
		var weak []*rsakey.Key
		for len(weak) < 2 {
			if k, err := rsakey.NewKey(tc.p, rsakey.GeneratePrime(r, 128), e); err == nil {
				weak = append(weak, k)
			}
		}
		var in bytes.Buffer
		write := func(k *rsakey.Key) {
			if err := pemkeys.WritePublicKey(&in, k.N.ToBig(), k.E); err != nil {
				t.Fatal(err)
			}
		}
		write(weak[0])
		for i := 0; i < 3; i++ {
			k, err := rsakey.GenerateKey(r, 256)
			if err != nil {
				t.Fatal(err)
			}
			write(k)
		}
		write(weak[1])

		emitDir := filepath.Join(t.TempDir(), "broken")
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-emit", emitDir}, &in, &out, &bytes.Buffer{}); err != nil {
			t.Fatalf("%s: run: %v\n%s", tc.name, err, out.String())
		}
		if got := strings.Count(out.String(), "d = (not recovered"); got != tc.noD {
			t.Fatalf("%s: %d keys without d, want %d:\n%s", tc.name, got, tc.noD, out.String())
		}
		if !strings.Contains(out.String(), "emitted 2 private keys") {
			t.Fatalf("%s: emit summary missing:\n%s", tc.name, out.String())
		}
		checkEmitted(t, emitDir, 0, weak[0].N.ToBig(), e)
		checkEmitted(t, emitDir, 4, weak[1].N.ToBig(), e)
	}
}

// primeOneModF4 returns a prime p of about bits bits with 65537 | p−1
// and 17 ∤ p−1, so 65537 has no inverse mod φ(p·q) and 17 may have one.
func primeOneModF4(r *rand.Rand, bits int) *big.Int {
	step := big.NewInt(2 * 65537)
	limit := new(big.Int).Lsh(big.NewInt(1), uint(bits-18))
	for {
		p := new(big.Int).Mul(new(big.Int).Rand(r, limit), step)
		p.Add(p, big.NewInt(1))
		if p.BitLen() > bits-4 && new(big.Int).Mod(p, big.NewInt(17)).Int64() != 1 && p.ProbablyPrime(20) {
			return p
		}
	}
}

// TestRunPEMSkipsGarbageBlocks: mixed streams warn but work.
func TestRunPEMSkipsGarbageBlocks(t *testing.T) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 4, Bits: 256, WeakPairs: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	for _, k := range c.Keys {
		if err := pemkeys.WritePublicKey(&in, k.N.ToBig(), k.E); err != nil {
			t.Fatal(err)
		}
	}
	pem.Encode(&in, &pem.Block{Type: "EC PRIVATE KEY", Bytes: []byte{1}})
	var out, errOut bytes.Buffer
	if err := run(context.Background(), nil, &in, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "skipped PEM block 4 (EC PRIVATE KEY)") ||
		!strings.Contains(errOut.String(), "unsupported block type") {
		t.Fatalf("per-block skip report missing: %q", errOut.String())
	}
	if !strings.Contains(out.String(), "BROKEN key") {
		t.Fatalf("attack failed on PEM input:\n%s", out.String())
	}
}

// TestExitCodes pins the documented exit-code contract: orchestration
// scripts branch on these numbers, so they are part of the CLI surface.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	cp, _ := writeCorpus(t, dir, 8, 128, 1, 3)

	usage := [][]string{
		{"-in", cp, "-alg", "nope"},
		{"-in", cp, "-no-such-flag"},
		{"-in", cp, "-quarantine", "-engine=batch"},
		// Retired flags: -engine=batch replaced -batch, the streaming
		// registry (rsafactor watch) replaced the -prev rescan, and the
		// cell-lease modes are gone.
		{"-in", cp, "-batch"},
		{"-in", cp, "-prev", "f"},
		{"-in", cp, "-serve", ":0"},
		{"-in", cp, "-worker", "http://x"},
	}
	for _, args := range usage {
		err := run(context.Background(), args, nil, &bytes.Buffer{}, &bytes.Buffer{})
		if code := exitCodeOf(err); code != exitUsage {
			t.Errorf("args %v: exit code %d (err %v), want %d", args, code, err, exitUsage)
		}
	}

	// Canceled: -cancel-after trips mid-run.
	jp := filepath.Join(dir, "cancel.jsonl")
	err := run(context.Background(), []string{"-in", cp, "-checkpoint", jp, "-cancel-after", "0"},
		nil, &bytes.Buffer{}, &bytes.Buffer{})
	if code := exitCodeOf(err); code != exitCanceled {
		t.Errorf("cancel-after: exit code %d (err %v), want %d", code, err, exitCanceled)
	}

	// Integrity: a truth file claiming a pair the scan cannot find.
	badTruth := filepath.Join(dir, "badtruth.txt")
	if err := os.WriteFile(badTruth, []byte("2 3 ff\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(context.Background(), []string{"-in", cp, "-truth", badTruth}, nil, &out, &bytes.Buffer{})
	if code := exitCodeOf(err); code != exitIntegrity {
		t.Errorf("bad truth: exit code %d (err %v), want %d\n%s", code, err, exitIntegrity, out.String())
	}

	// OK path for contrast.
	if err := run(context.Background(), []string{"-in", cp}, nil, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Errorf("clean run: %v", err)
	}
}
