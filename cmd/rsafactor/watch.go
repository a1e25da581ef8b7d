package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"bulkgcd/internal/corpus"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/registry"
)

// runWatch implements `rsafactor watch`: a long-lived registry server.
// Keys arrive over HTTP in any corpus format (hex lines or PEM), each
// submission is checked against the full history as one batch (one fold
// of the forest roots per chunk of up to 256 keys, a prefix descent and
// one GCD per key, a forest descent only on a hit), journaled before it
// is acknowledged, and answered with a clean/shared/duplicate/malformed
// verdict. The status endpoints
// (/metrics, /timeline, /dashboard, /healthz, pprof) ride on the same
// address; kill + restart replays the journal to an identical registry.
//
// HTTP surface:
//
//	POST /submit            corpus in the body (at most 16 MiB, else
//	                        413); returns 202 + job id, or the
//	                        finished job with ?sync=1. A key longer
//	                        than 16384 bits gets a malformed verdict
//	                        ("longer than 16384 bits") and is not
//	                        added
//	GET  /jobs/<id>         job status; the finished job embeds a
//	                        Report-schema artifact with verdict counts.
//	                        The server keeps the newest 1024 finished
//	                        jobs and every running one; an evicted id
//	                        answers 410, an id never issued 404
//	GET  /broken            every broken key: index, modulus, factor
//	GET  /registry          corpus size, removed, broken, spine stats
func runWatch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rsafactor watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "registry directory (created if absent; holds corpus log, journal, tree nodes)")
		addr      = fs.String("addr", ":8080", "listen address for submissions and status endpoints")
		workers   = fs.Int("workers", 0, "workers for each check's forest fold, chunk tree and prefix descent and for node rebuilds (0 = all CPUs)")
		tracePath = fs.String("trace", "", "append a JSONL span per submission to this file")
		report    = fs.String("report", "", "write an end-of-run JSON report (schema "+obs.ReportSchema+") on shutdown")
		verbose   = fs.Bool("v", false, "log each finding as it is discovered")
	)
	if err := fs.Parse(args); err != nil {
		return &exitError{code: exitUsage, err: err}
	}
	if *dir == "" {
		return usagef("watch: -dir is required")
	}
	if fs.NArg() > 0 {
		return usagef("watch: unexpected argument %q", fs.Arg(0))
	}

	reg := obs.NewRegistry()
	cfg := registry.Config{
		Workers:        *workers,
		Metrics:        reg,
		FindingsBuffer: 4096,
	}
	var traceF *os.File
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		traceF = f
		cfg.Trace = obs.NewTracer(f)
	}

	rep := obs.NewReport("rsafactor-watch")
	rep.Params["dir"] = *dir
	rep.Params["addr"] = *addr

	r, err := registry.Open(*dir, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rsafactor watch: registry %s open, %d keys (%d broken)\n", *dir, r.Len(), r.Stats().Broken)

	// Drain findings for the log; they stay visible via /broken.
	var findingWG sync.WaitGroup
	findingWG.Add(1)
	go func() {
		defer findingWG.Done()
		for f := range r.Findings() {
			if *verbose {
				fmt.Fprintf(stdout, "rsafactor watch: key %d shares factor with key %d\n", f.Index, f.Partner)
			}
		}
	}()

	ws := &watchServer{reg: r, jobs: map[string]*watchJob{}}
	srv, err := obs.ServeStatusOptions(*addr, obs.StatusOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/submit":   http.HandlerFunc(ws.handleSubmit),
			"/jobs/":    http.HandlerFunc(ws.handleJob),
			"/broken":   http.HandlerFunc(ws.handleBroken),
			"/registry": http.HandlerFunc(ws.handleRegistry),
		},
	})
	if err != nil {
		r.Close()
		return err
	}
	fmt.Fprintf(stdout, "rsafactor watch: serving on %s\n", srv.Addr())

	<-ctx.Done()
	fmt.Fprintln(stdout, "rsafactor watch: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(shutCtx)
	cancel()
	ws.wait() // let in-flight jobs finish against the open registry

	st := r.Stats()
	closeErr := r.Close()
	findingWG.Wait()
	if traceF != nil {
		traceF.Sync()
	}
	if *report != "" {
		rep.Summary["keys"] = st.Keys
		rep.Summary["removed"] = st.Removed
		rep.Summary["broken"] = st.Broken
		rep.Summary["submissions"] = st.Submissions
		rep.Summary["findings"] = st.Findings
		rep.Summary["spine_mults"] = st.SpineMults
		rep.Summary["replayed"] = st.Replayed
		rep.Finish(reg)
		if err := rep.WriteFile(*report); err != nil {
			return err
		}
	}
	return closeErr
}

// watchJob is one asynchronous submission batch.
type watchJob struct {
	ID    string `json:"job"`
	State string `json:"state"` // "running", "done", "failed"
	Error string `json:"error,omitempty"`
	// Verdicts, one per submitted key, in submission order.
	Verdicts []watchVerdict `json:"verdicts,omitempty"`
	// Report is the Report-schema artifact for the finished job.
	Report *obs.Report `json:"report,omitempty"`

	done chan struct{}
}

// watchVerdict is the wire form of one verdict.
type watchVerdict struct {
	Index    int            `json:"index"`
	Kind     string         `json:"kind"`
	Reason   string         `json:"reason,omitempty"`
	G        string         `json:"g,omitempty"` // hex, present when > 1
	Partners []watchPartner `json:"partners,omitempty"`
}

type watchPartner struct {
	Index     int    `json:"index"`
	Factor    string `json:"factor"` // hex
	Duplicate bool   `json:"duplicate,omitempty"`
}

// maxSubmitBody caps a /submit request body at 16 MiB, about 65000
// 1024-bit keys as hex lines. handleSubmit parses the whole body into
// memory before the job runs, so the cap bounds what one request can
// make the server hold; a larger corpus goes in several submissions.
const maxSubmitBody = 16 << 20

// maxFinishedJobs is how many finished jobs the server keeps for
// GET /jobs/<id>. Past it, the oldest finished job is evicted; a running
// job never is.
const maxFinishedJobs = 1024

// watchServer carries the HTTP handler state.
type watchServer struct {
	reg *registry.Registry

	mu       sync.Mutex
	jobs     map[string]*watchJob // running jobs and retained finished ones
	finished []string             // ids of the retained finished jobs, oldest first
	nextID   int
	wg       sync.WaitGroup
}

func (ws *watchServer) wait() { ws.wg.Wait() }

// handleSubmit parses the posted corpus and runs it through the
// registry as one job. Malformed keys (zero/even) become Malformed
// verdicts rather than failing the job, matching -quarantine semantics;
// a syntactically broken corpus fails the whole job (400), as does a
// body over maxSubmitBody (413). A failed job submits none of its keys.
func (ws *watchServer) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a corpus (hex lines or PEM) to /submit", http.StatusMethodNotAllowed)
		return
	}
	ws.mu.Lock()
	ws.nextID++
	job := &watchJob{
		ID:    fmt.Sprintf("job-%d", ws.nextID),
		State: "running",
		done:  make(chan struct{}),
	}
	ws.jobs[job.ID] = job
	ws.mu.Unlock()

	// Read the body before returning 202: the request body dies with the
	// handler. Lenient parsing keeps zero/even moduli so the registry
	// can answer Malformed instead of the parse erroring.
	src := corpus.NewLenientSource(http.MaxBytesReader(w, req.Body, maxSubmitBody))
	var moduli []*big.Int
	for src.Next() {
		moduli = append(moduli, src.Record().N.ToBig())
	}
	if err := src.Err(); err != nil {
		code := http.StatusBadRequest
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		ws.finishJob(job, nil, nil, err)
		ws.respondJob(w, job, code)
		return
	}

	rep := obs.NewReport("rsafactor-watch")
	rep.Params["job"] = job.ID
	rep.Params["keys"] = len(moduli)
	if n := len(src.Skipped()); n > 0 {
		rep.Summary["skipped_pem_blocks"] = n
	}

	ws.wg.Add(1)
	run := func() {
		defer ws.wg.Done()
		vs, err := ws.reg.SubmitBatch(moduli)
		if err != nil {
			ws.finishJob(job, nil, nil, err)
			return
		}
		counts := map[string]int{}
		verdicts := make([]watchVerdict, len(vs))
		for i, v := range vs {
			verdicts[i] = publicWatchVerdict(v)
			counts[verdicts[i].Kind]++
		}
		for k, n := range counts {
			rep.Summary[k] = n
		}
		rep.Finish(nil)
		ws.finishJob(job, verdicts, rep, nil)
	}

	if req.URL.Query().Get("sync") != "" {
		run()
		ws.respondJob(w, job, http.StatusOK)
		return
	}
	go run()
	ws.respondJob(w, job, http.StatusAccepted)
}

func publicWatchVerdict(v registry.Verdict) watchVerdict {
	out := watchVerdict{Index: v.Index, Kind: v.Kind.String(), Reason: v.Reason}
	if v.G != nil && v.G.BitLen() > 1 {
		out.G = v.G.Text(16)
	}
	for _, p := range v.Partners {
		out.Partners = append(out.Partners, watchPartner{Index: p.Index, Factor: p.Factor.Text(16), Duplicate: p.Dup})
	}
	return out
}

func (ws *watchServer) finishJob(job *watchJob, verdicts []watchVerdict, rep *obs.Report, err error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err != nil {
		job.State = "failed"
		job.Error = err.Error()
	} else {
		job.State = "done"
		job.Verdicts = verdicts
		job.Report = rep
	}
	close(job.done)
	ws.finished = append(ws.finished, job.ID)
	if len(ws.finished) > maxFinishedJobs {
		delete(ws.jobs, ws.finished[0])
		ws.finished = ws.finished[1:]
	}
}

// snapshot copies the job under the mutex: an async job may be
// finishing concurrently on its own goroutine. finishJob sets Verdicts
// and Report once and nothing mutates them afterwards, so the copy is
// encoded after the lock is released, and a client that reads its reply
// slowly, or never, holds up no other request.
func (ws *watchServer) snapshot(job *watchJob) watchJob {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return *job
}

func (ws *watchServer) respondJob(w http.ResponseWriter, job *watchJob, code int) {
	snap := ws.snapshot(job)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(&snap)
}

// handleJob serves GET /jobs/<id>; ?wait=1 blocks until the job leaves
// the running state. A job leaves ws.jobs only by eviction, so an id the
// server issued but no longer holds answers 410 Gone.
func (ws *watchServer) handleJob(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/jobs/")
	ws.mu.Lock()
	job, issued := ws.jobs[id], ws.nextID
	ws.mu.Unlock()
	if job == nil {
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= 1 && n <= issued && fmt.Sprintf("job-%d", n) == id {
			http.Error(w, fmt.Sprintf("job evicted: the server keeps the newest %d finished jobs", maxFinishedJobs), http.StatusGone)
			return
		}
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if req.URL.Query().Get("wait") != "" {
		select {
		case <-job.done:
		case <-req.Context().Done():
			return
		}
	}
	snap := ws.snapshot(job)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&snap)
}

// handleBroken lists every broken key as {index, g} hex pairs — the
// diffable oracle surface the smoke test compares against batch GCD.
func (ws *watchServer) handleBroken(w http.ResponseWriter, _ *http.Request) {
	type brokenOut struct {
		Index int    `json:"index"`
		G     string `json:"g"`
	}
	bs := ws.reg.Broken()
	out := make([]brokenOut, len(bs))
	for i, b := range bs {
		out[i] = brokenOut{Index: b.Index, G: b.G.Text(16)}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleRegistry serves a point-in-time stats summary.
func (ws *watchServer) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	st := ws.reg.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
