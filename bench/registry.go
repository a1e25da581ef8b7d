package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/big"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const setupServers = 3 // registry set-ups per untraced run; setup_s is their median

// watchServer is one `rsafactor watch` subprocess.
type watchServer struct {
	cmd     *exec.Cmd
	log     *os.File // the server's standard error
	base    string   // http://host:port
	dir     string
	drained chan struct{} // closed when the server's stdout reaches EOF
}

// startWatch starts the server on a free loopback port and waits until
// it reports its address. Its standard error goes to dir + ".log".
func startWatch(ctx context.Context, bin, dir, tracePath string) (*watchServer, error) {
	args := []string{"watch", "-dir", dir, "-addr", "127.0.0.1:0"}
	if tracePath != "" {
		args = append(args, "-trace", tracePath)
	}
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting rsafactor watch: %w", err)
	}
	s := &watchServer{cmd: cmd, log: log, dir: dir, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rsafactor watch: serving on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
		err = fmt.Errorf("rsafactor watch exited before serving (see %s)", log.Name())
	case <-time.After(30 * time.Second):
		err = errors.New("rsafactor watch did not report its address")
	case <-ctx.Done():
		err = ctx.Err()
	}
	_ = cmd.Process.Kill()
	s.wait()
	return nil, err
}

// stop interrupts the server and waits for it; it is killed if it does
// not exit in time.
func (s *watchServer) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.drained:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
	}
	return s.wait()
}

func (s *watchServer) wait() error {
	<-s.drained
	err := s.cmd.Wait()
	s.log.Close()
	return err
}

// client talks to one server over at most conns connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// submit posts keys in one synchronous job and returns their verdicts.
func (c *client) submit(ctx context.Context, keys []*big.Int) ([]verdict, error) {
	var body strings.Builder
	for _, k := range keys {
		body.WriteString(k.Text(16))
		body.WriteByte('\n')
	}
	var job struct {
		State    string    `json:"state"`
		Error    string    `json:"error"`
		Verdicts []verdict `json:"verdicts"`
	}
	if err := c.do(ctx, http.MethodPost, "/submit?sync=1", strings.NewReader(body.String()), &job); err != nil {
		return nil, err
	}
	if job.State != "done" || len(job.Verdicts) != len(keys) {
		return nil, fmt.Errorf("submit job %s (%s) with %d verdicts for %d keys", job.State, job.Error, len(job.Verdicts), len(keys))
	}
	for i := range job.Verdicts {
		// The wire calls VerdictShared "shared-factor".
		if job.Verdicts[i].Kind == "shared-factor" {
			job.Verdicts[i].Kind = "shared"
		}
	}
	return job.Verdicts, nil
}

func (c *client) do(ctx context.Context, method, path string, body io.Reader, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// streamOp is one open- or closed-loop request.
type streamOp struct {
	read            bool // GET /broken, else a one-key submit
	key             int  // corpus index of the submitted key
	due, sent, done time.Time
	calib           float64 // the host's sentinel time around the op
	verdict         verdict
	broken          []brokenEntry
	err             error
}

// latencyMS is the op's time from due to reply, normalised.
func (op streamOp) latencyMS() float64 {
	return op.done.Sub(op.due).Seconds() * 1000 * sentinelRefMS / op.calib
}

// session is one server's life: set-up, streamed traffic, checks.
type session struct {
	c      config
	cs     *corpusSet
	o      *outcome
	srv    *watchServer
	cl     *client
	oracle *registryOracle
	got    []verdict       // every verdict received, checked at the end
	reads  [][]brokenEntry // every /broken listing, checked at the end
}

// setUp starts a server in a fresh directory and seeds it with the
// head of the corpus in chunks of seedChunk keys. It returns the
// normalised seconds from start to the last acknowledgement: the start
// and each chunk are normalised by a sentinel sample taken just before.
func setUp(ctx context.Context, c config, cs *corpusSet, o *outcome, name, tracePath string) (*session, float64, error) {
	dir := filepath.Join(c.outDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	s := &session{c: c, cs: cs, o: o, oracle: newRegistryOracle(cs.Truth, cs.Moduli)}
	calib := s.calib(sentinelIters)
	start := time.Now()
	srv, err := startWatch(ctx, c.rsafactor, dir, tracePath)
	if err != nil {
		return nil, 0, err
	}
	s.srv, s.cl = srv, newClient(srv.base)
	total := sinceS(start) * sentinelRefMS / calib
	head := c.workload.corpusSpec(c.quick, c.seconds).Head
	for lo := 0; lo < head; lo += seedChunk {
		hi := min(lo+seedChunk, head)
		calib := s.calib(sentinelIters)
		start := time.Now()
		o.attempted++
		vs, err := s.cl.submit(ctx, cs.Moduli[lo:hi])
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("seeding: %w", err)
		}
		total += sinceS(start) * sentinelRefMS / calib
		for i, v := range vs {
			s.record(lo+i, v)
		}
	}
	return s, total, nil
}

func (s *session) record(key int, v verdict) {
	if err := s.oracle.assign(v.Index, key); err != nil {
		s.o.fail("%v", err)
		return
	}
	s.got = append(s.got, v)
}

// close stops the server, removes its registry directory (its log
// stays), and returns its peak RSS in MiB and the CPU seconds it used.
func (s *session) close() (rssMB, cpuS float64) {
	s.cl.http.CloseIdleConnections()
	rssMB, err := peakRSSMB(strconv.Itoa(s.srv.cmd.Process.Pid))
	if err != nil {
		s.o.fail("rsafactor watch peak RSS: %v", err)
	}
	if err := s.srv.stop(); err != nil {
		s.o.fail("rsafactor watch exit: %v", err)
	}
	if ru, ok := s.srv.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if err := os.RemoveAll(s.srv.dir); err != nil {
		s.o.fail("removing %s: %v", s.srv.dir, err)
	}
	return rssMB, cpuS
}

// openLoop sends keys[from:to] at streamRate per second, one GET /broken
// per readEvery submits, on at most conns connections. Each op is timed
// from when it was due, so a stall also delays the ops queued behind it.
// Every calibEvery, once the ops in flight have finished and if the next
// op is not due for calibSlack, a short sentinel sample is taken in the
// idle gap; each op is normalised by the mean of the samples within a
// second of its due time.
func (s *session) openLoop(ctx context.Context, from, to int) []streamOp {
	const calibEvery, calibSlack = 500 * time.Millisecond, 15 * time.Millisecond
	type calibAt struct {
		at time.Time
		ms float64
	}
	var ops []streamOp
	calibs := []calibAt{{time.Now(), s.calib(sentinelIters / 5)}}
	start := time.Now().Add(20 * time.Millisecond)
	at := func(x float64) time.Time { return start.Add(time.Duration(x / streamRate * float64(time.Second))) }
	for i := 0; i < to-from; i++ {
		ops = append(ops, streamOp{key: from + i, due: at(float64(i))})
		if (i+1)%readEvery == 0 {
			ops = append(ops, streamOp{read: true, due: at(float64(i) + 0.5)})
		}
	}
	jobs := make(chan int)
	var workers, inflight sync.WaitGroup
	for w := 0; w < conns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range jobs {
				s.exec(ctx, &ops[i])
				inflight.Done()
			}
		}()
	}
dispatch:
	for i := range ops {
		if time.Since(calibs[len(calibs)-1].at) >= calibEvery {
			inflight.Wait()
			if time.Until(ops[i].due) >= calibSlack {
				calibs = append(calibs, calibAt{time.Now(), s.calib(sentinelIters / 5)})
			}
		}
		time.Sleep(time.Until(ops[i].due))
		inflight.Add(1)
		select {
		case jobs <- i:
		case <-ctx.Done():
			inflight.Done()
			break dispatch
		}
	}
	close(jobs)
	workers.Wait()
	for i := range ops {
		sum, n := 0.0, 0
		for _, c := range calibs {
			if d := c.at.Sub(ops[i].due); -time.Second < d && d < time.Second {
				sum, n = sum+c.ms, n+1
			}
		}
		ops[i].calib = calibs[0].ms
		if n > 0 {
			ops[i].calib = sum / float64(n)
		}
	}
	return ops
}

// loop submits keys[from:to] back to back on n connections, in chunks
// of loopChunk keys with a one-goroutine sentinel sample before each.
// Each op is normalised by its chunk's sample; it also returns the
// normalised throughput over all chunks in keys per second.
func (s *session) loop(ctx context.Context, from, to, n int) ([]streamOp, float64) {
	const loopChunk = 50
	ops := make([]streamOp, to-from)
	total := 0.0
	for lo := 0; lo < len(ops); lo += loopChunk {
		hi := min(lo+loopChunk, len(ops))
		calib := s.calib(sentinelIters)
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
					ops[i] = streamOp{key: from + i, due: time.Now(), calib: calib}
					s.exec(ctx, &ops[i])
				}
			}()
		}
		wg.Wait()
		total += sinceS(start) * sentinelRefMS / calib
	}
	return ops, float64(len(ops)) / total
}

// calib samples the one-goroutine sentinel, iters modexps long.
func (s *session) calib(iters int) float64 {
	c := sentinel(1, iters)
	s.o.calibMS = append(s.o.calibMS, c)
	return c
}

func (s *session) exec(ctx context.Context, op *streamOp) {
	op.sent = time.Now()
	if op.read {
		op.err = s.cl.do(ctx, http.MethodGet, "/broken", nil, &op.broken)
	} else {
		var vs []verdict
		vs, op.err = s.cl.submit(ctx, s.cs.Moduli[op.key:op.key+1])
		if op.err == nil {
			op.verdict = vs[0]
		}
	}
	op.done = time.Now()
}

// collect counts the ops and files their results for the final check.
func (s *session) collect(ops []streamOp) {
	for _, op := range ops {
		s.o.attempted++
		switch {
		case op.err != nil:
			s.o.fail("%v", op.err)
		case op.read:
			s.reads = append(s.reads, op.broken)
		default:
			s.record(op.key, op.verdict)
		}
	}
}

// finish takes the final /broken listing and checks every verdict and
// listing against the truth replayed in the registry's own order.
func (s *session) finish(ctx context.Context) {
	s.o.attempted++
	var final []brokenEntry
	if err := s.cl.do(ctx, http.MethodGet, "/broken", nil, &final); err != nil {
		s.o.fail("final /broken: %v", err)
		return
	}
	want, shared, err := s.oracle.expect()
	if err != nil {
		s.o.fail("%v", err)
		return
	}
	for _, v := range s.got {
		if v.Index < len(want) && !sameVerdict(v, want[v.Index]) {
			s.o.fail("registry index %d: verdict %s, want %s", v.Index, v.Kind, want[v.Index].Kind)
		}
	}
	for _, l := range s.reads {
		if err := checkBroken(l, shared, false); err != nil {
			s.o.fail("%v", err)
		}
	}
	if err := checkBroken(final, shared, true); err != nil {
		s.o.fail("final %v", err)
	}
}

// runRegistry runs the registry-stream workload against the last of
// setupServers servers (the others are stopped after seeding): the open
// loop for a third of the run's length, then seqKeys submits one at a
// time, then closedKeys submits on conns connections.
//
// The server works through submissions one at a time, so its times are
// normalised by the one-goroutine sentinel; on a 2-vCPU host the all-CPU
// sentinel tracked them worse than no normalisation at all. The open
// loop's latencies are reported but not used as metrics: a few seconds'
// stall of a shared host queues every submit behind it. Over ten seeds
// the interquartile range of the open-loop median reached 38% of it,
// while that of the one-at-a-time median, which a stall delays only for
// its own duration, stayed between 6% and 12%.
func runRegistry(ctx context.Context, c config, cs *corpusSet) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}, extras: map[string]float64{}}
	sp := c.workload.corpusSpec(c.quick, c.seconds)
	open, seq, _ := registryLoops(c.quick, c.seconds)
	if c.trace {
		return o, tracedRegistry(ctx, c, cs, o, sp.Head, seq/2)
	}

	var setups []float64
	var s *session
	for i := 0; i < setupServers; i++ {
		var setup float64
		var err error
		if s, setup, err = setUp(ctx, c, cs, o, fmt.Sprintf("registry-%d", i), ""); err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < setupServers-1 {
			s.finish(ctx)
			s.close()
		}
	}
	from := sp.Head
	ops := s.openLoop(ctx, from, from+open)
	s.collect(ops)
	from += open
	oneByOne, _ := s.loop(ctx, from, from+seq, 1)
	s.collect(oneByOne)
	from += seq
	closed, rate := s.loop(ctx, from, sp.Keys, conns)
	s.collect(closed)
	s.finish(ctx)
	var stats struct{ Keys int }
	if err := s.cl.do(ctx, http.MethodGet, "/registry", nil, &stats); err != nil {
		o.fail("/registry: %v", err)
	}
	var snap struct {
		Histograms map[string]struct{ P50 float64 } `json:"histograms"`
	}
	if err := s.cl.do(ctx, http.MethodGet, "/metrics?format=json", nil, &snap); err != nil {
		o.fail("/metrics: %v", err)
	}
	storeBytes := dirBytes(s.srv.dir)
	rss, cpu := s.close()

	var openLat, late, reads, lat []float64
	for _, op := range ops {
		late = append(late, op.sent.Sub(op.due).Seconds()*1000)
		if op.read {
			reads = append(reads, op.latencyMS())
		} else {
			openLat = append(openLat, op.latencyMS())
		}
	}
	var raw []float64
	for _, op := range oneByOne {
		lat = append(lat, op.latencyMS())
		raw = append(raw, op.done.Sub(op.due).Seconds()*1000)
	}
	o.metrics["setup_s"] = sample("s", setups, 1)
	o.metrics["op_p50_ms"] = sample("ms", lat, 1)
	o.metrics["keys_per_s"] = single("1/s", rate)
	o.metrics["peak_rss_mb"] = single("MB", rss)
	o.extras["op_p90_ms"] = quantile(lat, 0.9)
	o.extras["raw.op_p50_ms"] = median(raw)
	o.extras["open.submit_p50_ms"] = median(openLat)
	o.extras["open.submit_p99_ms"] = quantile(openLat, 0.99)
	o.extras["open.read_p50_ms"] = median(reads)
	o.extras["loadgen.late_ms_p99"] = quantile(late, 0.99)
	o.extras["loadgen.late_ms_max"] = quantile(late, 1)
	o.extras["cpu_ms_per_key"] = cpu * 1000 / float64(sp.Keys)
	serverP50 := snap.Histograms["registry_submit_seconds"].P50 * 1000
	o.extras["registry.server_submit_ms_p50"] = serverP50
	o.extras["watch.overhead_ms_p50"] = median(raw) - serverP50
	if stats.Keys > 0 {
		o.extras["store_bytes_per_key"] = float64(storeBytes) / float64(stats.Keys)
	}
	return o, nil
}

// tracedRegistry runs two sessions of n one-at-a-time submits each, the
// first untraced and the second with the server's span trace on, and
// reports the tracing overhead and the traced ops' spans.
func tracedRegistry(ctx context.Context, c config, cs *corpusSet, o *outcome, head, n int) error {
	var p50 [2]float64
	for i, traced := range []bool{false, true} {
		tracePath := ""
		if traced {
			tracePath = filepath.Join(c.outDir, "watch-trace.jsonl")
		}
		s, _, err := setUp(ctx, c, cs, o, fmt.Sprintf("registry-traced-%d", i), tracePath)
		if err != nil {
			return err
		}
		from := head + i*n
		ops, _ := s.loop(ctx, from, from+n, 1)
		s.collect(ops)
		s.finish(ctx)
		s.close()
		var lat []float64
		for _, op := range ops {
			lat = append(lat, op.latencyMS())
		}
		p50[i] = median(lat)
		if !traced {
			continue
		}
		prog, err := os.ReadFile(tracePath)
		if err != nil {
			return err
		}
		spans, err := streamSpans(ops, prog)
		if err != nil {
			return err
		}
		o.spans = spans
	}
	o.metrics["trace.overhead_frac"] = single("frac", p50[1]/p50[0]-1)
	o.metrics["trace.unattributed_frac"] = sample("frac", unattributed(o.spans), 1)
	for name, ms := range layerSelfMS(o.spans) {
		o.extras["self_ms."+name] = ms
	}
	return nil
}

// streamSpans builds the traced submits' spans: per op, "op" from its
// due time to its reply, "wait" until a connection took it, "http" for
// the round trip, and under "http" the server's "submit" span for the
// key's registry index.
func streamSpans(ops []streamOp, programTrace []byte) ([]span, error) {
	var spans []span
	byIndex := map[int]span{}
	for n, op := range ops {
		root := span{ID: fmt.Sprintf("op%d", n), Op: n, Name: "op", Start: op.due.UnixNano(), End: op.done.UnixNano()}
		wait := span{ID: root.ID + "/wait", Parent: root.ID, Op: n, Name: "wait", Start: root.Start, End: max(root.Start, op.sent.UnixNano())}
		call := span{ID: root.ID + "/http", Parent: root.ID, Op: n, Name: "http", Start: wait.End, End: root.End}
		if op.read {
			root.Attrs = map[string]any{"request": "GET /broken"}
		} else {
			root.Attrs = map[string]any{"request": "POST /submit", "index": op.verdict.Index}
			byIndex[op.verdict.Index] = call
		}
		spans = append(spans, root, wait, call)
	}
	evs, err := parseProgramTrace(programTrace)
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		i, ok := ev.Attrs["index"].(float64)
		if call, found := byIndex[int(i)]; ok && found && ev.Name == "submit" {
			spans = append(spans, adoptProgramSpans([]programEvent{ev}, call.Op, call)...)
		}
	}
	return spans, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
