package bulk

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/mpnat"
)

// CellRunner exposes the hybrid engine's tile cells as individually
// executable work units, which is what a fleet worker needs: the
// coordinator leases cell indices, the worker computes each leased cell
// with RunUnit, and the resulting checkpoint.Record is exactly what a
// local HybridContext run would have journaled for the same unit — so a
// journal assembled cell-by-cell across machines is indistinguishable
// from a single-process one, and the fleet inherits the hybrid engine's
// findings-identity guarantee.
//
// A CellRunner is NOT safe for concurrent use: it owns one pairRunner
// (one worker's scratch space and lane batcher). A process that wants
// intra-worker parallelism runs several CellRunners.
type CellRunner struct {
	plan       *hybridPlan
	cfg        Config // stable copy; pr holds a pointer into it
	moduli     []*mpnat.Nat
	pr         pairRunner
	hm         *hybridMetrics
	metrics    *runMetrics
	seq        atomic.Int64
	spanParent string
}

// NewCellRunner validates the corpus and configuration and builds the
// cell grid. Checkpoint and Resume are ignored here — journaling is the
// coordinator's job in a fleet run, so set them there, not on workers.
func NewCellRunner(moduli []*mpnat.Nat, cfg Config) (*CellRunner, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return nil, err
	}
	r := &CellRunner{
		plan:   plan,
		cfg:    cfg,
		moduli: moduli,
	}
	r.cfg.Checkpoint = nil
	r.cfg.Resume = nil
	r.metrics = newRunMetrics(r.cfg.Metrics, r.cfg.Algorithm)
	r.hm = newHybridMetrics(r.cfg.Metrics)
	r.pr = newPairRunner(&r.cfg, plan.maxBits, moduli, &r.seq, r.metrics)
	return r, nil
}

// Units returns the number of cells in the grid.
func (r *CellRunner) Units() int { return len(r.plan.cells) }

// TotalPairs returns the pair count of the full scan.
func (r *CellRunner) TotalPairs() int64 { return r.plan.header.TotalPairs }

// Header returns the journal header of this run — identical to what
// HybridJournalHeader returns for the same inputs, so a coordinator and
// its workers agree on the run's fingerprint by construction.
func (r *CellRunner) Header() checkpoint.Header { return r.plan.header }

// Quarantined returns the input moduli excluded under Config.Quarantine.
func (r *CellRunner) Quarantined() []Quarantined { return r.plan.bad }

// SetSpanParent sets the span ID each subsequent cell span is emitted
// under — a fleet worker points this at the coordinator's run span
// (LeaseResponse.ParentSpan), so cells computed here parent correctly
// in the merged fleet trace. "" emits root spans. No-op without a
// Config.Trace.
func (r *CellRunner) SetSpanParent(parent string) { r.spanParent = parent }

// RunUnit computes one cell and returns its journal record. A panic
// anywhere inside the cell — including one raised by the fault hook,
// which is how the chaos campaign poisons specific cells — is recovered
// and returned as an error, so a fleet worker can report the failure
// instead of dying; the runner is rebuilt and stays usable. Contexts
// are honored between units only: RunUnit checks ctx on entry (a cell
// is small by design, and a journaled record must cover a whole cell).
func (r *CellRunner) RunUnit(ctx context.Context, unit int) (rec checkpoint.Record, err error) {
	if unit < 0 || unit >= len(r.plan.cells) {
		return checkpoint.Record{}, fmt.Errorf("bulk: cell %d out of range [0,%d)", unit, len(r.plan.cells))
	}
	if cerr := ctx.Err(); cerr != nil {
		return checkpoint.Record{}, cerr
	}
	defer func() {
		if p := recover(); p != nil {
			// The kernel may have been interrupted mid-update: rebuild the
			// per-worker runner before the next cell.
			r.pr = newPairRunner(&r.cfg, r.plan.maxBits, r.moduli, &r.seq, r.metrics)
			err = fmt.Errorf("bulk: cell %d: %v", unit, p)
		}
	}()
	r.cfg.Fault.OnBlock(unit)
	c := r.plan.cells[unit]
	// The cell span is emitted only on success: a failed or abandoned
	// cell must not put a span in the fleet trace (the coordinator keeps
	// exactly one cell span per completed cell).
	span := r.cfg.Trace.StartSpanUnder(r.spanParent, "cell", "cell", unit, "a", c.A, "b", c.B)
	start := time.Now()
	var blk blockOut
	r.pr.runCell(r.plan, c, r.hm, &blk)
	dur := time.Since(start)
	r.metrics.observeBlock(&blk, dur)
	r.hm.observeCell(dur)
	span.End("pairs", blk.pairs, "factors", len(blk.factors), "bad_pairs", len(blk.bad))
	return blk.record(unit), nil
}

// Assemble converts completed unit records — typically the coordinator's
// journal at the end of a fleet run — into the Result an uninterrupted
// local HybridContext run over the same corpus would return (modulo
// Stats and timing, which stay with whichever process computed the
// pairs). Records carrying BadCell (fleet-quarantined units) contribute
// nothing; their pairs are simply missing from Result.Pairs, which is
// how callers detect an incomplete scan.
func (r *CellRunner) Assemble(records map[int]checkpoint.Record) (*Result, error) {
	factors, bad, pairs, err := restoreJournal(&checkpoint.State{Done: records})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Factors:     factors,
		BadPairs:    bad,
		Pairs:       pairs,
		Total:       r.plan.header.TotalPairs,
		Quarantined: r.plan.bad,
	}
	sortFactors(res.Factors)
	sortBadPairs(res.BadPairs)
	return res, nil
}
