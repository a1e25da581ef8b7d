package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/pemkeys"
	"bulkgcd/internal/registry"
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

// postCorpus posts a hex corpus with ?sync=1, the form older clients
// send, and decodes the reply.
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
// HTTP in waves, with and without ?sync=1, a kill+restart in the middle,
// and a final /broken diff against the batch-GCD oracle over everything
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

	// Life 1: two waves, then a plain POST.
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

	// A plain POST, without ?sync=1, answers with its verdicts too, and
	// no endpoint takes a job id.
	var body bytes.Buffer
	fmt.Fprintf(&body, "%x\n", moduli[18])
	resp, err := http.Post(base+"/submit", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	var plain watchJob
	err = json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || plain.State != "done" || len(plain.Verdicts) != 1 || plain.Verdicts[0].Index != 18 {
		t.Fatalf("plain POST: %s, job %+v (decode error %v), want 200 and key 18's verdict", resp.Status, plain, err)
	}
	jresp, err := http.Get(base + "/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/job-1: %s, want 404", jresp.Status)
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
		t.Fatalf("oversized body: %s, job in state %q with %d verdicts (decode err %v), want 413 and a failed job",
			resp.Status, job.State, len(job.Verdicts), err)
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

// TestWatchMaxKeyBits: through /submit, a 16384-bit key is accepted and
// a 16385-bit key gets a malformed verdict and is not added.
func TestWatchMaxKeyBits(t *testing.T) {
	base, cancel, done, _ := startWatch(t, t.TempDir())
	defer func() {
		cancel()
		<-done
	}()
	one := big.NewInt(1)
	longest := new(big.Int).Add(new(big.Int).Lsh(one, 16383), one)
	tooLong := new(big.Int).Add(new(big.Int).Lsh(one, 16384), one)
	job := postCorpus(t, base, []*big.Int{longest, tooLong})
	if job.State != "done" || len(job.Verdicts) != 2 {
		t.Fatalf("job: %+v", job)
	}
	if v := job.Verdicts[0]; v.Kind == "malformed" || v.Index != 0 {
		t.Fatalf("16384-bit key: %+v", v)
	}
	if v := job.Verdicts[1]; v.Kind != "malformed" || v.Index != -1 || v.Reason != "longer than 16384 bits" {
		t.Fatalf("16385-bit key: %+v", v)
	}
	var st struct{ Keys int }
	getJSON(t, base+"/registry", &st)
	if st.Keys != 1 {
		t.Fatalf("registry holds %d keys, want 1", st.Keys)
	}
}

// TestWatchSubmitStatusCodes: /submit answers 405 to a GET, 400 with a
// failed job to a corpus that does not parse, and 500 with a failed job
// when the registry refuses the batch, here because it is closed.
func TestWatchSubmitStatusCodes(t *testing.T) {
	r, err := registry.Open(t.TempDir(), registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ws := &watchServer{reg: r}
	for _, c := range []struct {
		method, body string
		code         int
		err          string
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed, ""},
		{http.MethodPost, "not-hex\n", http.StatusBadRequest, "line 1"},
		{http.MethodPost, "4d\n", http.StatusInternalServerError, "registry: closed"},
	} {
		rec := httptest.NewRecorder()
		ws.handleSubmit(rec, httptest.NewRequest(c.method, "/submit", strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Fatalf("%s %q: %d, want %d", c.method, c.body, rec.Code, c.code)
		}
		if c.err == "" {
			continue
		}
		var job watchJob
		if err := json.NewDecoder(rec.Body).Decode(&job); err != nil || job.State != "failed" || !strings.Contains(job.Error, c.err) {
			t.Fatalf("%s %q: job %+v (decode error %v), want a failed job naming %q", c.method, c.body, job, err, c.err)
		}
	}
}

// TestWatchSkippedPEMBlocks: a PEM body with a non-RSA block answers
// the RSA keys' verdicts and counts the skipped block.
func TestWatchSkippedPEMBlocks(t *testing.T) {
	r, err := registry.Open(t.TempDir(), registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ec, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalPKIXPublicKey(&ec.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := pemkeys.WritePublicKey(&body, big.NewInt(15), 65537); err != nil {
		t.Fatal(err)
	}
	if err := pem.Encode(&body, &pem.Block{Type: "PUBLIC KEY", Bytes: der}); err != nil {
		t.Fatal(err)
	}
	if err := pemkeys.WritePublicKey(&body, big.NewInt(21), 65537); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	(&watchServer{reg: r}).handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/submit", &body))
	var job watchJob
	if err := json.NewDecoder(rec.Body).Decode(&job); err != nil || rec.Code != http.StatusOK || job.State != "done" {
		t.Fatalf("PEM submit: %d, job %+v (decode error %v)", rec.Code, job, err)
	}
	if job.SkippedPEMBlocks != 1 || len(job.Verdicts) != 2 {
		t.Fatalf("PEM submit: %d skipped blocks and %d verdicts, want 1 and 2", job.SkippedPEMBlocks, len(job.Verdicts))
	}
	if v := job.Verdicts[1]; v.Kind != "shared-factor" || len(v.Partners) != 1 || v.Partners[0].Index != 0 || v.Partners[0].Factor != "3" {
		t.Fatalf("21 after 15: %+v", v)
	}
}

// TestWatchSlowReaderDoesNotStallSubmit: a client that posts a large
// ?sync=1 body and then stops reading its reply must not hold up other
// submissions. 300000 even moduli get one malformed verdict each, a
// reply of about 23 MB, far more than the socket buffers take, so the
// server's write blocks until the client reads.
func TestWatchSlowReaderDoesNotStallSubmit(t *testing.T) {
	base, cancel, done, _ := startWatch(t, t.TempDir())
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	body := strings.Repeat("2\n", 300000)
	fmt.Fprintf(conn, "POST /submit?sync=1 HTTP/1.1\r\nHost: watch\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 200") {
		t.Fatalf("large submit: status line %q, %v", status, err)
	}

	// The large reply now waits on a client that has stopped reading.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(base+"/submit?sync=1", "text/plain", strings.NewReader("4d\n"))
	if err != nil {
		t.Fatalf("one-key submit while another reply is unread: %v", err)
	}
	defer resp.Body.Close()
	var job watchJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || job.State != "done" || len(job.Verdicts) != 1 {
		t.Fatalf("one-key submit: %s, job %+v", resp.Status, job)
	}
}
