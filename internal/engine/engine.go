// Package engine holds the configuration surface shared by every attack
// engine in the repository — the all-pairs executor (internal/bulk), the
// Bernstein batch-GCD tree (internal/batchgcd), the tiled product-filter
// hybrid (internal/bulk) and the attack pipeline that drives them
// (internal/attack). Each of those packages embeds Config, so a new
// cross-cutting knob (a metrics registry, a tracer, a fault hook) is
// added exactly once and appears everywhere.
//
// The package also defines Kind, the canonical engine selector the CLIs
// and the public API parse and print.
package engine

import (
	"fmt"
	"runtime"
	"strings"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/obs"
)

// Config is the cross-engine configuration every engine understands.
// The zero value selects the defaults: a GOMAXPROCS-sized pool, no
// progress callbacks, no metrics, no tracing, no journaling.
type Config struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS. Every
	// engine guarantees identical findings at every pool size.
	Workers int

	// Progress, when non-nil, receives completion counts in the engine's
	// work units (pairs for the all-pairs and hybrid engines, tree
	// operations for batch GCD). Engines serialize delivery and guarantee
	// strictly increasing done values — invocations never overlap and
	// stale updates are dropped — so callbacks need no locking.
	Progress func(done, total int64)

	// Metrics, when non-nil, receives the run's counters, gauges and
	// histograms (DESIGN.md section 5c lists every exported name). Nil
	// disables collection with no measurable overhead.
	Metrics *obs.Registry

	// Trace, when non-nil, receives structured JSONL span events.
	Trace *obs.Tracer

	// Checkpoint, when non-nil, journals every completed work unit so an
	// interrupted run can be resumed. Resume, when non-nil, is a journal
	// loaded from a previous run whose completed units are skipped.
	// Supported by the pairs and hybrid engines; batch GCD has no
	// resumable unit decomposition and rejects both.
	Checkpoint *checkpoint.Writer
	Resume     *checkpoint.State

	// Fault is the test-only fault-injection hook; nil in production.
	Fault *faultinject.Hook
}

// EffectiveWorkers resolves the pool size a run with this Config uses.
func (c Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Kind selects an attack engine. The zero value is Pairs, the paper's
// all-pairs computation.
type Kind int

const (
	// Pairs is the paper's all-pairs GCD engine: one full GCD per pair,
	// block-decomposed over a worker pool.
	Pairs Kind = iota
	// Batch is Bernstein's product/remainder-tree batch GCD.
	Batch
	// Hybrid is the tiled product-filter engine: one subproduct-filter
	// GCD per (modulus, tile) cell, descending to per-pair GCDs only on
	// filter hits.
	Hybrid
)

var kindNames = [...]string{"pairs", "batch", "hybrid"}

// String returns the engine's canonical lowercase name, the form
// ParseKind accepts and the CLIs expose.
func (k Kind) String() string {
	if k < Pairs || k > Hybrid {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind parses an engine name (case-insensitive): "pairs", "batch"
// or "hybrid".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "pairs":
		return Pairs, nil
	case "batch":
		return Batch, nil
	case "hybrid":
		return Hybrid, nil
	}
	return 0, fmt.Errorf("engine: unknown engine %q (want pairs, batch or hybrid)", s)
}

// KernelKind selects the per-pair GCD executor used by the pairs and
// hybrid engines. The zero value, KernelLanes, makes the executor follow
// the algorithm: Approximate runs on the lane-batched kernel, and the
// other four algorithms, which have no lane implementation, run on the
// scalar kernel. KernelScalar pins the scalar kernel for every
// algorithm; it is the reference executor of the oracle tests, gcdbench
// -kernel scalar and the Table V reproduction. The batch engine has no
// per-pair kernel and ignores the choice.
type KernelKind int

const (
	// KernelLanes runs Approximate GCDs in lockstep over a column-major
	// operand matrix (internal/lanes), and every other algorithm on the
	// scalar kernel. Findings are identical to KernelScalar; only
	// throughput and per-pair statistics differ.
	KernelLanes KernelKind = iota
	// KernelScalar runs one GCD at a time on row-major operands
	// (internal/gcd).
	KernelScalar
)

var kernelNames = [...]string{"lanes", "scalar"}

// String returns the kernel's canonical lowercase name, the form
// ParseKernelKind accepts and gcdbench exposes.
func (k KernelKind) String() string {
	if k < KernelLanes || k > KernelScalar {
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
	return kernelNames[k]
}

// ParseKernelKind parses a kernel name (case-insensitive).
func ParseKernelKind(s string) (KernelKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "scalar":
		return KernelScalar, nil
	case "lanes":
		return KernelLanes, nil
	}
	return 0, fmt.Errorf("engine: unknown kernel %q (want scalar or lanes)", s)
}
