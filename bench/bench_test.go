package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bulkgcd"
)

var smallSpec = spec{Keys: 40, Bits: 256, Clusters: []int{2, 3}, DupPairs: 1, Head: 40}

func fileHash(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := loadOrGenerate(t.TempDir(), smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadOrGenerate(t.TempDir(), smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadOrGenerate(t.TempDir(), smallSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus.txt", "truth.json"} {
		if fileHash(t, filepath.Join(a.Dir, name)) != fileHash(t, filepath.Join(b.Dir, name)) {
			t.Errorf("%s differs between two generations of seed 7", name)
		}
	}
	if fileHash(t, a.corpusPath()) == fileHash(t, c.corpusPath()) {
		t.Error("seeds 7 and 8 gave the same corpus")
	}
	// The planted structure holds: cluster members share exactly their
	// cluster prime, duplicates are equal, and moduli have the full size.
	for _, cl := range a.Truth.Clusters {
		p, _ := new(big.Int).SetString(cl.Prime, 16)
		for _, i := range cl.Members[1:] {
			if g := new(big.Int).GCD(nil, nil, a.Moduli[cl.Members[0]], a.Moduli[i]); g.Cmp(p) != 0 {
				t.Errorf("cluster members %d and %d share %v, want the cluster prime", cl.Members[0], i, g)
			}
		}
	}
	for _, d := range a.Truth.Duplicates {
		if a.Moduli[d[0]].Cmp(a.Moduli[d[1]]) != 0 {
			t.Errorf("duplicate pair %v differs", d)
		}
	}
	for i, n := range a.Moduli {
		if n.BitLen() != smallSpec.Bits {
			t.Errorf("modulus %d has %d bits", i, n.BitLen())
		}
	}
}

func TestCacheRejectsTamperedEntry(t *testing.T) {
	root := t.TempDir()
	a, err := loadOrGenerate(root, smallSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := fileHash(t, a.corpusPath())
	if err := os.WriteFile(a.corpusPath(), []byte("# tampered\n0f\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCached(a.Dir, smallSpec, 3); err == nil {
		t.Fatal("a corpus that no longer matches its manifest was accepted")
	}
	b, err := loadOrGenerate(root, smallSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.GenS == 0 || fileHash(t, b.corpusPath()) != want {
		t.Error("the tampered entry was not regenerated identically")
	}
}

func TestTruthCheckerRejectsWrongResults(t *testing.T) {
	cs, err := loadOrGenerate(t.TempDir(), smallSpec, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bulkgcd.Engines {
		rep, err := bulkgcd.New(bulkgcd.WithEngine(e)).Run(context.Background(), cs.Moduli)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReport(cs.Truth, cs.Moduli, rep); err != nil {
			t.Fatalf("%v: correct report rejected: %v", e, err)
		}
	}
	corruptions := map[string]func(r *bulkgcd.Report){
		"missing key":    func(r *bulkgcd.Report) { r.Broken = r.Broken[1:] },
		"wrong factor":   func(r *bulkgcd.Report) { r.Broken[0].P = big.NewInt(3) },
		"wrong exponent": func(r *bulkgcd.Report) { r.Broken[0].D = new(big.Int).Add(r.Broken[0].D, big.NewInt(2)) },
		"wrong partner":  func(r *bulkgcd.Report) { r.Broken[0].FoundWith = r.Broken[0].Index },
		"lost duplicate": func(r *bulkgcd.Report) { r.Duplicates = nil },
		"short scan":     func(r *bulkgcd.Report) { r.Pairs-- },
	}
	for name, corrupt := range corruptions {
		rep, err := bulkgcd.New().Run(context.Background(), cs.Moduli)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(rep)
		if checkReport(cs.Truth, cs.Moduli, rep) == nil {
			t.Errorf("%s: corrupted report accepted", name)
		}
	}

	// Registry verdicts, replayed in corpus order.
	o := newRegistryOracle(cs.Truth, cs.Moduli)
	for k := range cs.Moduli {
		if err := o.assign(k, k); err != nil {
			t.Fatal(err)
		}
	}
	want, final, err := o.expect()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := bulkgcd.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	vs, err := reg.SubmitBatch(cs.Moduli)
	if err != nil {
		t.Fatal(err)
	}
	for i, kv := range vs {
		if got := fromKeyVerdict(kv); !sameVerdict(got, want[i]) {
			t.Fatalf("index %d: registry verdict %+v, oracle %+v", i, got, want[i])
		}
	}
	var listing []brokenEntry
	for _, b := range reg.Broken() {
		listing = append(listing, brokenEntry{Index: b.Index, G: b.G.Text(16)})
	}
	if err := checkBroken(listing, final, true); err != nil {
		t.Fatalf("correct /broken listing rejected: %v", err)
	}
	shared := cs.Truth.Clusters[0].Members[1]
	wrong := want[shared]
	wrong.Kind = "clean"
	if sameVerdict(wrong, want[shared]) {
		t.Error("a clean verdict for a shared key was accepted")
	}
	wrong = want[shared]
	wrong.Partners = nil
	if sameVerdict(wrong, want[shared]) {
		t.Error("a verdict without its partner was accepted")
	}
	if checkBroken(listing[1:], final, true) == nil {
		t.Error("a final /broken listing missing a key was accepted")
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: "op", Name: "op", Start: 0, End: 100},
		{ID: "a", Parent: "op", Start: 10, End: 50},
		{ID: "b", Parent: "op", Start: 30, End: 70}, // overlaps a: parallel workers
		{ID: "c", Parent: "a", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[string]int64{"op": 40, "a": 30, "b": 40, "c": 10} {
		if self[id] != want {
			t.Errorf("self(%s) = %d, want %d", id, self[id], want)
		}
	}
	if got := unattributed(spans); len(got) != 1 || got[0] != 0.4 {
		t.Errorf("unattributed = %v, want [0.4]", got)
	}
	if checkSpans(append(spans, span{ID: "d", Parent: "gone"})) == nil {
		t.Error("an orphan span passed the check")
	}
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bf.RunSeconds)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %+v, the code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of range", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %+v, the code has %+v", i, m, d)
		}
	}
}

// TestSmoke builds the benchmark and rsafactor, runs every workload at
// -quick size, untraced and traced, against the real `rsafactor watch`
// subprocess, and checks the results, the metrics and the traces.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := t.TempDir()
	for pkg, out := range map[string]string{".": "bench", "../cmd/rsafactor": "rsafactor"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	root := t.TempDir()
	cmd := exec.Command(filepath.Join(bin, "bench"), "-quick", "-seconds", "1", "-seed", "2",
		"-root", root, "-rsafactor", filepath.Join(bin, "rsafactor"))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("benchmark: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var final struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d\n%s", final.Correct, final.Failed, final.Attempted, stdout.String())
	}
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		var names []string
		for _, m := range bf.EndToEnd {
			names = append(names, m.Name)
		}
		for _, m := range bf.PerLayer {
			names = append(names, m.Name)
		}
		for _, n := range names {
			if m, ok := final.Metrics[w.Name+"/"+n]; !ok || m.Unit == "" {
				t.Errorf("%s: metric %s missing", w.Name, n)
			}
		}
		traces, _ := filepath.Glob(filepath.Join(root, "bench", "out", "*", "trace-"+w.Name+".jsonl"))
		if len(traces) != 1 {
			t.Fatalf("%s: want one trace file, found %v", w.Name, traces)
		}
		f, err := os.Open(traces[0])
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: %v", traces[0], err)
			}
			spans = append(spans, s)
		}
		f.Close()
		if len(spans) == 0 {
			t.Errorf("%s: empty trace", w.Name)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}

	results := filepath.Join(root, "bench", "out", "results.jsonl")
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), mustRead(t, "../BENCHMARK.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-root", root, "-compare", results, results}, &out, &out); code != 0 {
		t.Errorf("comparing a result file with itself: exit %d\n%s", code, out.String())
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
