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
//	                        413); answers once every verdict is
//	                        durable: 200 with state "done" and one
//	                        verdict per key, 400 for a corpus that
//	                        does not parse, 500 with state "failed"
//	                        when the registry fails. A key longer
//	                        than 16384 bits gets a malformed verdict
//	                        ("longer than 16384 bits") and is not
//	                        added. ?sync=1, which older clients send,
//	                        is accepted and ignored
//	GET  /broken            every broken key: index, modulus, factor
//	GET  /registry          corpus size, broken, spine stats
func runWatch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rsafactor watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "registry directory (created if absent; holds corpus log, journal, tree nodes)")
		addr      = fs.String("addr", ":8080", "listen address for submissions and status endpoints")
		workers   = fs.Int("workers", 0, "workers for each check's forest fold, chunk tree and prefix descent and for node rebuilds (0 = all CPUs)")
		tracePath = fs.String("trace", "", "append a JSONL span per submission to this file")
		report    = fs.String("report", "", "write an end-of-run JSON report (schema "+obs.ReportSchema+") on shutdown")
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
		Workers: *workers,
		Metrics: reg,
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

	ws := &watchServer{reg: r}
	srv, err := obs.ServeStatusOptions(*addr, obs.StatusOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/submit":   http.HandlerFunc(ws.handleSubmit),
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
	// Every submit runs inside its handler, so Shutdown's drain waits
	// for the ones in flight. Past its timeout a batch still running
	// holds the registry lock, and Close waits for it: the batch
	// finishes and is durable before the logs close, and a submit that
	// reaches the registry after Close answers 500 "registry: closed".
	// No WaitGroup is needed.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(shutCtx)
	cancel()

	st := r.Stats()
	closeErr := r.Close()
	if traceF != nil {
		traceF.Sync()
	}
	if *report != "" {
		rep.Summary["keys"] = st.Keys
		rep.Summary["broken"] = st.Broken
		rep.Summary["submissions"] = st.Submissions
		rep.Summary["spine_mults"] = st.SpineMults
		rep.Summary["replayed"] = st.Replayed
		rep.Finish(reg)
		if err := rep.WriteFile(*report); err != nil {
			return err
		}
	}
	return closeErr
}

// watchJob is the reply to one /submit.
type watchJob struct {
	State string `json:"state"` // "done" or "failed"
	Error string `json:"error,omitempty"`
	// Verdicts, one per submitted key, in submission order.
	Verdicts []watchVerdict `json:"verdicts,omitempty"`
	// SkippedPEMBlocks counts the PEM blocks of the body that held no
	// RSA key, the one fact of a submit its verdicts do not show.
	SkippedPEMBlocks int `json:"skipped_pem_blocks,omitempty"`
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
// memory before the batch runs, so the cap bounds what one request can
// make the server hold; a larger corpus goes in several submissions.
const maxSubmitBody = 16 << 20

// watchServer carries the HTTP handler state.
type watchServer struct {
	reg *registry.Registry
}

// handleSubmit parses the posted corpus, runs it through the registry
// as one batch and answers with its verdicts once they are durable.
// Malformed keys (zero/even) become Malformed verdicts rather than
// failing the batch, matching -quarantine semantics; a syntactically
// broken corpus fails the whole submit (400), as does a body over
// maxSubmitBody (413) and a registry error (500). A body that fails to
// parse or is too large adds none of its keys. The reply is encoded with
// no lock held, so a client that reads it slowly, or never, holds up no
// other request.
func (ws *watchServer) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a corpus (hex lines or PEM) to /submit", http.StatusMethodNotAllowed)
		return
	}
	// Lenient parsing keeps zero/even moduli so the registry can answer
	// Malformed instead of the parse erroring.
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
		respondJob(w, code, watchJob{State: "failed", Error: err.Error()})
		return
	}
	vs, err := ws.reg.SubmitBatch(moduli)
	if err != nil {
		respondJob(w, http.StatusInternalServerError, watchJob{State: "failed", Error: err.Error()})
		return
	}
	job := watchJob{State: "done", Verdicts: make([]watchVerdict, len(vs)), SkippedPEMBlocks: len(src.Skipped())}
	for i, v := range vs {
		job.Verdicts[i] = publicWatchVerdict(v)
	}
	respondJob(w, http.StatusOK, job)
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

func respondJob(w http.ResponseWriter, code int, job watchJob) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(&job)
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
