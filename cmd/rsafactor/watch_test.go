package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/rsakey"
)

var watchAddrRE = regexp.MustCompile(`rsafactor watch: serving on ([^\s]+)`)

// startWatch launches `rsafactor watch` against dir and returns its
// base URL, the cancel func, and the run error channel.
func startWatch(t *testing.T, dir string, extra ...string) (string, context.CancelFunc, chan error, *lockedBuf) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lockedBuf{}
	done := make(chan error, 1)
	args := append([]string{"watch", "-dir", dir, "-addr", "127.0.0.1:0"}, extra...)
	go func() {
		done <- run(ctx, args, nil, out, io.Discard)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := watchAddrRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], cancel, done, out
		}
		select {
		case err := <-done:
			t.Fatalf("watch exited before serving: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("watch address never appeared:\n%s", out.String())
	return "", nil, nil, nil
}

// postCorpus submits a hex corpus synchronously and decodes the job.
func postCorpus(t *testing.T, base string, moduli []*big.Int) *watchJob {
	t.Helper()
	var body bytes.Buffer
	for _, m := range moduli {
		fmt.Fprintf(&body, "%x\n", m)
	}
	resp, err := http.Post(base+"/submit?sync=1", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /submit: %s\n%s", resp.Status, b)
	}
	var job watchJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return &job
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

type brokenLine struct {
	Index int    `json:"index"`
	G     string `json:"g"`
}

// TestWatchServer is the watch-mode acceptance test: keys submitted over
// HTTP in waves, async job status, a kill+restart in the middle, and a
// final /broken diff against the batch-GCD oracle over everything
// submitted across both server lives.
func TestWatchServer(t *testing.T) {
	dir := t.TempDir()
	regDir := filepath.Join(dir, "registry")
	report := filepath.Join(dir, "watch-report.json")
	trace := filepath.Join(dir, "trace.jsonl")

	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 30, Bits: 96, WeakPairs: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	moduli := make([]*big.Int, 0, 30)
	for _, n := range c.Moduli() {
		moduli = append(moduli, n.ToBig())
	}

	// Life 1: two waves, then an async job polled to completion.
	base, cancel, done, _ := startWatch(t, regDir, "-trace", trace)
	job := postCorpus(t, base, moduli[:10])
	if job.State != "done" || len(job.Verdicts) != 10 {
		t.Fatalf("wave 1 job: %+v", job)
	}
	for i, v := range job.Verdicts {
		if v.Index != i {
			t.Fatalf("wave 1 verdict %d has index %d", i, v.Index)
		}
	}
	postCorpus(t, base, moduli[10:18])

	// Async submission + job polling with ?wait=1.
	var body bytes.Buffer
	fmt.Fprintf(&body, "%x\n", moduli[18])
	resp, err := http.Post(base+"/submit", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %s", resp.Status)
	}
	var async watchJob
	if err := json.NewDecoder(resp.Body).Decode(&async); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var polled watchJob
	getJSON(t, base+"/jobs/"+async.ID+"?wait=1", &polled)
	if polled.State != "done" || len(polled.Verdicts) != 1 || polled.Verdicts[0].Index != 18 {
		t.Fatalf("polled job: %+v", polled)
	}
	if polled.Report == nil || polled.Report.Schema == "" {
		t.Fatalf("finished job carries no report artifact: %+v", polled)
	}

	// Live metrics and timeline while serving.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "registry_submissions_total") {
		t.Fatalf("/metrics missing registry counters:\n%s", mb)
	}
	var timeline map[string]any
	getJSON(t, base+"/timeline", &timeline)
	if len(timeline) == 0 {
		t.Fatal("/timeline empty")
	}

	// Kill the server (graceful shutdown on signal-context cancel).
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("watch life 1: %v", err)
	}

	// Life 2: restart over the same directory, submit the rest.
	base, cancel, done, out := startWatch(t, regDir, "-report", report)
	var stats struct {
		Keys     int   `json:"Keys"`
		Replayed int64 `json:"Replayed"`
	}
	getJSON(t, base+"/registry", &stats)
	if stats.Keys != 19 {
		t.Fatalf("after restart: %d keys, want 19", stats.Keys)
	}
	if stats.Replayed != 0 {
		t.Fatalf("clean restart replayed %d verdicts", stats.Replayed)
	}
	postCorpus(t, base, moduli[19:])

	// The final broken set must be byte-identical to the batch-GCD
	// oracle over everything submitted across both lives.
	var broken []brokenLine
	getJSON(t, base+"/broken", &broken)
	gs, err := batchgcd.SharedFactorsContext(context.Background(), moduli, batchgcd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[int]string{}
	for i, g := range gs {
		if g.Cmp(big.NewInt(1)) > 0 {
			oracle[i] = g.Text(16)
		}
	}
	if len(broken) != len(oracle) {
		t.Fatalf("/broken has %d keys, oracle %d", len(broken), len(oracle))
	}
	for _, b := range broken {
		if oracle[b.Index] != b.G {
			t.Fatalf("index %d: /broken g=%s oracle g=%s", b.Index, b.G, oracle[b.Index])
		}
	}
	for _, pp := range c.Planted {
		if _, ok := oracle[pp.I]; !ok {
			t.Fatalf("planted pair (%d,%d) missing from oracle", pp.I, pp.J)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("watch life 2: %v\n%s", err, out.String())
	}

	// Shutdown artifacts: report with registry summary, trace spans.
	rep := readReport(t, report)
	if rep.Tool != "rsafactor-watch" {
		t.Fatalf("report tool = %q", rep.Tool)
	}
	if keys := rep.Summary["keys"].(float64); int(keys) != len(moduli) {
		t.Fatalf("report keys = %v, want %d", keys, len(moduli))
	}
	if rep.Summary["broken"].(float64) == 0 {
		t.Fatal("report has no broken keys")
	}
	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traceData), `"submit"`) {
		t.Fatalf("trace has no submit spans:\n%.400s", traceData)
	}
}

// TestWatchUsageErrors: watch flag validation exits with usage errors.
func TestWatchUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"watch"},
		{"watch", "-dir"},
		{"watch", "-dir", t.TempDir(), "extra"},
	} {
		err := run(context.Background(), args, nil, io.Discard, io.Discard)
		if exitCodeOf(err) != exitUsage {
			t.Fatalf("args %v: exit %d (err %v), want usage", args, exitCodeOf(err), err)
		}
	}
}

// TestWatchSubmitBodyCap: a /submit body one byte over 16 MiB is
// answered 413 with a failed job and submits none of its keys, and the
// server keeps accepting normal bodies.
func TestWatchSubmitBodyCap(t *testing.T) {
	c, err := rsakey.GenerateCorpus(rsakey.CorpusSpec{Count: 6, Bits: 96, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var moduli []*big.Int
	for _, n := range c.Moduli() {
		moduli = append(moduli, n.ToBig())
	}
	base, cancel, done, _ := startWatch(t, t.TempDir())
	defer func() {
		cancel()
		<-done
	}()
	keys := func() int {
		var st struct{ Keys int }
		getJSON(t, base+"/registry", &st)
		return st.Keys
	}
	postCorpus(t, base, moduli[:3])

	// A valid key that must not be submitted, then even numbers: valid
	// hex lines, so the cap and not a parse error ends the read, and
	// cheap Malformed verdicts should a server ever accept them.
	even := fmt.Sprintf("%x\n", new(big.Int).Add(moduli[3], big.NewInt(1)))
	body := []byte(fmt.Sprintf("%x\n", moduli[3]))
	body = append(body, bytes.Repeat([]byte(even), (16<<20)/len(even)+1)...)[:16<<20+1]
	resp, err := http.Post(base+"/submit?sync=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job watchJob
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || job.State != "failed" {
		t.Fatalf("oversized body: %s, job %s in state %q with %d verdicts (decode err %v), want 413 and a failed job",
			resp.Status, job.ID, job.State, len(job.Verdicts), err)
	}
	if n := keys(); n != 3 {
		t.Fatalf("registry holds %d keys after the oversized body, want 3", n)
	}

	if job := postCorpus(t, base, moduli[3:]); job.State != "done" || len(job.Verdicts) != 3 {
		t.Fatalf("normal body after the oversized one: %+v", job)
	}
	if n := keys(); n != 6 {
		t.Fatalf("registry holds %d keys, want 6", n)
	}
}
