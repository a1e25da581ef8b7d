// Package lanes implements the lane-batched bulk GCD kernel: L
// Approximate-Euclidean GCDs executed in lockstep over a column-major
// operand matrix, the CPU analog of the paper's one-thread-per-GCD bulk
// execution (Section VI). Where the scalar kernel (internal/gcd) walks one
// pair at a time over row-major mpnat values, this kernel stores limb i of
// lane j at m[i*L+j] — the ColumnWise convention of internal/umm/layout.go,
// the order that coalesces on the UMM device model — and advances every
// lane by one iteration per superstep.
//
// Lockstep execution follows the paper's semi-obliviousness argument: the
// Approximate algorithm's per-iteration work depends only on the operand
// lengths, which start equal for same-size moduli and shrink together, so
// lanes rarely diverge. Data-dependent steps avoid divergent data movement:
// the X/Y exchange is a masked flip of a per-lane plane selector plus a
// masked length exchange (no limbs move), and the strip shift is a per-lane
// register carried through the fused sweep. The rare beta > 0 update and
// the sub-64-bit tail run per lane, mirroring how a GPU serializes
// divergent threads.
//
// The kernel is internally 64-bit: two of the paper's d = 32 words are
// packed per limb, which halves both the iteration count (each quotient
// approximation removes about one 64-bit limb's worth of bits) and the
// limbs touched per sweep. Findings are nonetheless byte-identical to the
// scalar kernel: every update is X <- rshift(X - m*Y) for an odd m with
// 1 <= m*Y <= X, which preserves gcd(X, Y) exactly, and the early/exact
// termination outcome is a function of that invariant alone (see
// DESIGN.md section 5e for the argument).
//
// Steady state runs at zero allocations per pair: operand matrices,
// per-lane registers and the result buffer live in per-worker arenas
// sized once at construction; only returned non-trivial factors are
// cloned (and a gcd of 1 returns a shared constant), matching the scalar
// Scratch contract.
package lanes

import (
	"fmt"
	"math/bits"

	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// DefaultWidth is the default lane count L. 16 lanes of 4096-bit
// operands keep both matrices inside 64 KiB — resident in L1/L2 — while
// amortizing the per-superstep classification work.
const DefaultWidth = 16

// Pair is one GCD task: the labels A, B are echoed in the Result, X and Y
// must be odd and positive (the contract of the scalar loops), and Early,
// when positive, early-terminates the lane as soon as Y drops below Early
// bits — exactly the scalar kernel's Options.EarlyBits.
type Pair struct {
	A, B  int
	X, Y  *mpnat.Nat
	Early int
}

// Result is one retired pair. G follows the scalar Compute contract: nil
// means early-terminated (coprime at RSA scale), a shared constant 1 for
// exactly coprime pairs, and a freshly cloned factor otherwise. G must
// not be modified by callers.
type Result struct {
	A, B  int
	G     *mpnat.Nat
	Stats gcd.Stats
}

// Telemetry counts what the kernel did, for the bulk_lanes_* metrics.
// Fields accumulate across Run calls; callers snapshot and diff.
type Telemetry struct {
	// Batches counts Run invocations.
	Batches int64
	// Supersteps counts lockstep iterations over the lane matrix.
	Supersteps int64
	// Retirements counts lanes that finished a pair (exact or early).
	Retirements int64
	// Refills counts retired lane slots immediately reloaded with a
	// pending pair (initial loads are not refills).
	Refills int64
	// LaneSlots is Supersteps * L; ActiveLanes sums the occupied lanes at
	// each superstep, so ActiveLanes/LaneSlots is the mean occupancy.
	LaneSlots   int64
	ActiveLanes int64
	// HeadBatches counts applied head-batched quotient compositions;
	// HeadSteps sums the quotient steps they composed, so
	// HeadSteps/HeadBatches is the realized batch depth. HeadCapHits
	// counts batches ended by the adaptive depth cap rather than the
	// acceptance bound, and DepthCap snapshots the cap's current value.
	HeadBatches int64
	HeadSteps   int64
	HeadCapHits int64
	DepthCap    int64
}

// one is the shared gcd-is-1 result, mirroring the scalar kernel.
var one = mpnat.New(1)

// Kernel is a lane-batched GCD executor. A Kernel is not safe for
// concurrent use; the bulk layer holds one per worker.
type Kernel struct {
	// Telemetry accumulates run counters; see the type's field docs.
	Telemetry Telemetry

	l     int // lane count L
	limbs int // 64-bit limb capacity per operand

	// Column-major operand matrices: limb i of lane j at [i*l+j], always
	// zero-padded above the lane's active length so that columnar sweeps
	// can run to a shared bound without per-lane bounds checks. Which
	// plane holds lane j's X is selected by xsel[j], so the frequent
	// X <-> Y exchange flips a bit instead of moving limbs.
	a, b   []uint64
	planes [2][]uint64 // {a, b}, indexed by xsel for a branch-free select
	xsel   []uint8     // 0: X in a, Y in b; 1: the other way

	// Per-lane registers.
	lx, ly    []int32 // active limb lengths, X >= Y maintained
	early     []int32 // early-termination bit threshold (0 = off)
	slot      []int32 // result index of the resident pair; -1 = free
	iters     []int32 // iteration count of the resident pair
	tailIters []int32 // iterations spent in the 64-bit tail
	betaCnt   []int32 // beta > 0 updates of the resident pair
	memops    []int64 // word-level memory ops (32-bit-word equivalents)

	// Head registers: the top two limbs of each operand, maintained
	// across iterations (the sweep emits them as it writes, the masked
	// exchange swaps them along with the lengths). The quotient
	// approximation, the X/Y comparison and the early-termination check
	// are functions of lengths and heads alone, so the steady-state
	// iteration touches the operand matrix only inside the sweep.
	hx1, hx2 []uint64 // top and second limb of X (undefined above lx)
	hy1, hy2 []uint64 // top and second limb of Y (undefined above ly)

	utmp []uint64 // beta > 0 scratch: one extracted lane, limbs+1
	elig []int32  // superstep scratch: head-batch-eligible lanes in order

	// Adaptive head-batch depth controller (see lehmer64.go): the cap
	// grows while most batches in a window end cap-bound and freezes once
	// the acceptance-rejection rate takes over. SetBatchDepth pins it.
	depthCap  int32
	adaptive  bool
	hbRuns    int32
	hbCapHits int32

	results   []Result
	conv      mpnat.Nat // limb-to-Nat conversion scratch for retirements
	convWords []uint32

	batch    []Pair
	next     int
	occupied int
}

// NewKernel returns a Kernel with width lanes sized for operands up to
// maxBits wide. width < 1 selects DefaultWidth.
func NewKernel(width, maxBits int) *Kernel {
	if width < 1 {
		width = DefaultWidth
	}
	limbs := (maxBits+63)/64 + 1
	k := &Kernel{
		l:     width,
		limbs: limbs,
		a:     make([]uint64, limbs*width),
		b:     make([]uint64, limbs*width),
		xsel:  make([]uint8, width),

		lx:        make([]int32, width),
		ly:        make([]int32, width),
		early:     make([]int32, width),
		slot:      make([]int32, width),
		iters:     make([]int32, width),
		tailIters: make([]int32, width),
		betaCnt:   make([]int32, width),
		memops:    make([]int64, width),

		hx1: make([]uint64, width),
		hx2: make([]uint64, width),
		hy1: make([]uint64, width),
		hy2: make([]uint64, width),

		utmp:      make([]uint64, limbs+1),
		elig:      make([]int32, 0, width),
		convWords: make([]uint32, 0, 2*limbs),

		depthCap: initialBatchDepth,
		adaptive: true,
	}
	k.planes = [2][]uint64{k.a, k.b}
	for j := range k.slot {
		k.slot[j] = -1
	}
	k.conv.Grow(2 * limbs)
	return k
}

// Width returns the lane count L.
func (k *Kernel) Width() int { return k.l }

// SetBatchDepth pins the head-batch depth cap to d and disables the
// adaptive controller; d < 1 restores the adaptive default. Any cap
// yields identical findings — a shorter batch is just a shallower
// unimodular prefix — so this exists for differential tests that sweep
// forced depths, and for experiments.
func (k *Kernel) SetBatchDepth(d int) {
	if d < 1 {
		k.depthCap = initialBatchDepth
		k.adaptive = true
		k.hbRuns, k.hbCapHits = 0, 0
		return
	}
	if d > maxBatchDepth {
		d = maxBatchDepth
	}
	k.depthCap = int32(d)
	k.adaptive = false
}

// lanePlanes returns lane j's X and Y matrices per its plane selector.
// The swap decision is a coin flip on random operands, so the selector
// indexes an array of the two planes instead of branching.
func (k *Kernel) lanePlanes(j int) (xm, ym []uint64) {
	s := k.xsel[j] & 1
	return k.planes[s], k.planes[1^s]
}

// Run executes every pair of the batch, filling lanes in input order and
// refilling each retired lane from the pending stream (the final batches
// run ragged as the stream dries up). The returned slice is indexed like
// pairs — results are in input order regardless of retirement order —
// and is only valid until the next Run.
func (k *Kernel) Run(pairs []Pair) []Result {
	if cap(k.results) < len(pairs) {
		k.results = make([]Result, len(pairs))
	}
	k.results = k.results[:len(pairs)]
	for i := range k.results {
		k.results[i] = Result{A: pairs[i].A, B: pairs[i].B}
	}
	k.Telemetry.Batches++
	k.batch = pairs
	k.next = 0
	for j := 0; j < k.l && k.next < len(pairs); j++ {
		k.load(j, false)
	}
	for k.occupied > 0 {
		k.superstep()
	}
	k.batch = nil
	return k.results
}

// load converts the next pending pair into lane j's columns, larger
// operand first, and zero-pads both columns to the matrix height.
func (k *Kernel) load(j int, refill bool) {
	p := &k.batch[k.next]
	idx := k.next
	k.next++
	x, y := p.X, p.Y
	if x.Cmp(y) < 0 {
		x, y = y, x
	}
	if x.BitLen() > 64*(k.limbs-1) {
		panic(fmt.Sprintf("lanes: %d-bit operand exceeds kernel capacity", x.BitLen()))
	}
	k.xsel[j] = 0
	k.lx[j] = int32(k.fill(k.a, j, x))
	k.ly[j] = int32(k.fill(k.b, j, y))
	k.reloadXHead(j)
	k.reloadYHead(j)
	k.early[j] = int32(p.Early)
	k.slot[j] = int32(idx)
	k.iters[j] = 0
	k.tailIters[j] = 0
	k.betaCnt[j] = 0
	k.memops[j] = 0
	k.occupied++
	if refill {
		k.Telemetry.Refills++
	}
}

// reloadXHead refreshes lane j's X head registers from its column, for
// the paths that rewrite the column without streaming through the head
// (load, the beta > 0 update, and the rare top-cancellation sweep).
func (k *Kernel) reloadXHead(j int) {
	xm, _ := k.lanePlanes(j)
	l := k.l
	k.hx1[j], k.hx2[j] = 0, 0
	if n := int(k.lx[j]); n > 0 {
		k.hx1[j] = xm[(n-1)*l+j]
		if n > 1 {
			k.hx2[j] = xm[(n-2)*l+j]
		}
	}
}

// reloadYHead is reloadXHead for the Y side (load only: sweeps never
// touch Y).
func (k *Kernel) reloadYHead(j int) {
	_, ym := k.lanePlanes(j)
	l := k.l
	k.hy1[j], k.hy2[j] = 0, 0
	if n := int(k.ly[j]); n > 0 {
		k.hy1[j] = ym[(n-1)*l+j]
		if n > 1 {
			k.hy2[j] = ym[(n-2)*l+j]
		}
	}
}

// fill packs a Nat's 32-bit words into lane j of matrix m as 64-bit
// limbs, returning the limb count.
func (k *Kernel) fill(m []uint64, j int, v *mpnat.Nat) int {
	ws := v.Words()
	n := (len(ws) + 1) / 2
	for i := 0; i < n; i++ {
		lo := uint64(ws[2*i])
		var hi uint64
		if 2*i+1 < len(ws) {
			hi = uint64(ws[2*i+1])
		}
		m[i*k.l+j] = lo | hi<<32
	}
	for i := n; i < k.limbs; i++ {
		m[i*k.l+j] = 0
	}
	return n
}

// superstep advances every occupied lane by one iteration. The per-lane
// step is fused — classify, approximate, sweep, masked swap, retirement
// check run back to back while the lane's registers are hot — rather
// than phased over the whole matrix, which was measured to spend a
// quarter of the kernel in list-building and re-loading lane state.
func (k *Kernel) superstep() {
	k.Telemetry.Supersteps++
	k.Telemetry.LaneSlots += int64(k.l)
	k.Telemetry.ActiveLanes += int64(k.occupied)
	// Collect head-batch-eligible lanes and stream them through the
	// two-slot fused simulation queue (see runFusedQueue): the sim is
	// latency-bound, and two independent chains nearly double its
	// throughput. Collection order is a pure function of lane state, so
	// execution stays deterministic; lanes are independent, so results
	// are unchanged.
	elig := k.elig[:0]
	for j := 0; j < k.l; j++ {
		if k.slot[j] < 0 {
			continue
		}
		if k.lx[j] > 2 && k.lx[j] == k.ly[j] {
			elig = append(elig, int32(j))
			continue
		}
		k.stepLane(j)
	}
	if len(elig) >= 2 {
		k.runFusedQueue(elig)
	} else if len(elig) == 1 {
		k.stepLane(int(elig[0]))
	}
}

// stepLane runs one iteration of lane j: quotient approximation, the
// fused update sweep (or a serialized divergent path: the 64-bit tail,
// the rare beta > 0 update), then the branch-free masked X <-> Y
// exchange and the termination check — the same order as the scalar
// Approximate loop.
func (k *Kernel) stepLane(j int) {
	if k.lx[j] <= 2 {
		// Both operands fit the head registers: finish in the exact
		// 128-bit register tail (the endgame analog of approx Case 1),
		// with no matrix traffic at all. A lane refilled by the
		// retirement joins the lockstep at the next superstep.
		k.tail128(j)
		return
	}
	if k.lx[j] == k.ly[j] && k.headBatch(j) {
		// A head batch composed several quotient steps and applied them
		// in one fused column pass; it already updated lengths, heads
		// and the iteration/memory accounting. Fall through to the
		// masked exchange and retirement check shared with the
		// single-step path.
		k.exchangeAndRetire(j)
		return
	}
	k.stepSlow(j)
}

// stepSlow is the single-step fallback: the quotient approximation and
// the per-step fused sweep (or the rare serialized beta > 0 update),
// shared by stepLane and the unpaired tail of a head-batch pair.
func (k *Kernel) stepSlow(j int) {
	alpha, beta := approx64(k.lx[j], k.ly[j], k.hx1[j], k.hx2[j], k.hy1[j], k.hy2[j])
	// Memory-op accounting in the paper's 32-bit-word units: each limb
	// is two words, each iteration reads X, reads Y and writes X; the
	// beta > 0 path re-reads Y (Section IV's 4*s/d iteration).
	lxw, lyw := 2*int64(k.lx[j]), 2*int64(k.ly[j])
	if beta > 0 {
		k.memops[j] += 2*lxw + 2*lyw
		k.betaUpdate(j, alpha, beta)
		k.reloadXHead(j)
	} else {
		if alpha&1 == 0 { // make the multiplier odd, as the scalar kernel does
			alpha--
		}
		k.memops[j] += 2*lxw + lyw
		k.sweepLane(j, alpha)
	}
	k.iters[j]++
	k.exchangeAndRetire(j)
}

// exchangeAndRetire is the epilogue both update paths share. Masked
// exchange: where X < Y, flip the plane selector and exchange the
// lengths and head registers — no limbs move. Then retire on
// termination, checked after the update like the scalar loops: Y zero
// means the gcd is X; otherwise Y's bit length — a function of its
// length and top head register — decides early termination.
func (k *Kernel) exchangeAndRetire(j int) {
	m := k.cmpMask(j)
	mm := uint64(int64(m))
	k.xsel[j] ^= uint8(m & 1)
	t := (k.lx[j] ^ k.ly[j]) & m
	k.lx[j] ^= t
	k.ly[j] ^= t
	h := (k.hx1[j] ^ k.hy1[j]) & mm
	k.hx1[j] ^= h
	k.hy1[j] ^= h
	h = (k.hx2[j] ^ k.hy2[j]) & mm
	k.hx2[j] ^= h
	k.hy2[j] ^= h
	nly := int(k.ly[j])
	if nly == 0 {
		k.retire(j, false)
		return
	}
	if e := int(k.early[j]); e > 0 && (nly-1)*64+bits.Len64(k.hy1[j]) < e {
		k.retire(j, true)
	}
}

// sweepLane is the hot path: the fused X <- rshift(X - alpha*Y) update of
// mpnat.SubMulRshift over lane j's column. The multiply carry, borrow,
// strip-shift discovery and the trailing write cursor all live in
// registers for the whole column walk; the write cursor trails the read
// cursor, so the update is in place. Y's column is zero-padded above ly,
// so the loop runs to lx without a per-limb length check. alpha == 1 —
// the most common multiplier by the Gauss-Kuzmin law, and the only one
// the equal-length x128 <= y128 case produces — takes a multiply-free
// subtract-only walk.
func (k *Kernel) sweepLane(j int, alpha uint64) {
	xm, ym := k.lanePlanes(j)
	l := k.l
	lx := int(k.lx[j])
	var borrow, pending, sh, last uint64
	started := false
	idx := j    // read cursor: limb i at column j
	out := j    // write cursor, trailing idx by the stripped whole limbs
	outLen := 0 // limbs written through out
	if alpha == 1 {
		for i := 0; i < lx; i++ {
			d, br := bits.Sub64(xm[idx], ym[idx], borrow)
			borrow = br
			idx += l
			if started {
				// d<<(64-sh) is 0 in Go when sh == 0, which is exactly right.
				w := pending | d<<(64-sh)
				xm[out] = w
				last = w
				out += l
				outLen++
				pending = d >> sh
			} else if d != 0 {
				started = true
				sh = uint64(bits.TrailingZeros64(d))
				pending = d >> sh
			}
		}
		if borrow != 0 {
			panic("lanes: sweep underflow")
		}
	} else {
		var mulCarry uint64
		for i := 0; i < lx; i++ {
			hi, lo := bits.Mul64(ym[idx], alpha)
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			d, br := bits.Sub64(xm[idx], lo, borrow)
			borrow = br
			idx += l
			if started {
				w := pending | d<<(64-sh)
				xm[out] = w
				last = w
				out += l
				outLen++
				pending = d >> sh
			} else if d != 0 {
				started = true
				sh = uint64(bits.TrailingZeros64(d))
				pending = d >> sh
			}
		}
		if borrow != 0 || mulCarry != 0 {
			panic("lanes: sweep underflow")
		}
	}
	newLen := 0
	if started {
		xm[out] = pending
		newLen = outLen + 1
		// The final pending limb and the last streamed write are the new
		// top two limbs — captured here so the next iteration's approx,
		// compare and retire check stay matrix-free.
		k.hx1[j] = pending
		k.hx2[j] = 0
		if outLen > 0 {
			k.hx2[j] = last
		}
		if pending == 0 {
			// Top-limb cancellation: trim the zero top (and any zeros
			// below it) and re-derive the heads from the column. Rare —
			// the strip shift keeps the top limb non-zero unless the
			// subtraction cancelled the high bits outright.
			for newLen > 0 && xm[(newLen-1)*l+j] == 0 {
				newLen--
			}
		}
	} else {
		k.hx1[j], k.hx2[j] = 0, 0
	}
	// Restore the zero-padding invariant above the new length.
	for i := newLen; i < lx; i++ {
		xm[i*l+j] = 0
	}
	k.lx[j] = int32(newLen)
	if started && pending == 0 {
		k.reloadXHead(j)
	}
}

// cmpMask returns an all-ones mask when lane j's X < Y and zero
// otherwise — the paper's Section IV length-first comparison, computed
// arithmetically over the lengths and head registers. The swap decision
// is a coin flip on random operands, so the (length, top limb, second
// limb) ordering — lexicographic for normalized operands — is folded
// into one borrow chain instead of a value branch the predictor would
// miss half the time. The descent below the heads runs only when
// lengths and both head limbs all match, which random operands
// essentially never produce, so its guarding branch stays predictable.
func (k *Kernel) cmpMask(j int) int32 {
	lxv, lyv := k.lx[j], k.ly[j]
	if lxv == 0 || lyv == 0 {
		// A zero operand is smaller than anything but zero. lx == 0 can
		// happen transiently when a sweep cancels X entirely.
		return (lxv - lyv) >> 31
	}
	if lxv == lyv && k.hx1[j] == k.hy1[j] && k.hx2[j] == k.hy2[j] {
		return k.cmpDeep(j)
	}
	_, br := bits.Sub64(k.hx2[j], k.hy2[j], 0)
	_, br = bits.Sub64(k.hx1[j], k.hy1[j], br)
	_, br = bits.Sub64(uint64(uint32(lxv)), uint64(uint32(lyv)), br)
	return -int32(br)
}

// cmpDeep resolves the X < Y mask when lengths and both head limbs
// match: scan the columns below the heads, most significant first.
func (k *Kernel) cmpDeep(j int) int32 {
	xm, ym := k.lanePlanes(j)
	l := k.l
	for i := int(k.lx[j]) - 3; i >= 0; i-- {
		if xv, yv := xm[i*l+j], ym[i*l+j]; xv != yv {
			_, br := bits.Sub64(xv, yv, 0)
			return -int32(br)
		}
	}
	return 0
}

// retire emits lane j's result into its slot and refills the lane from
// the pending stream when pairs remain.
func (k *Kernel) retire(j int, early bool) {
	res := &k.results[k.slot[j]]
	st := &res.Stats
	st.Iterations = int(k.iters[j])
	st.BetaNonZero = int(k.betaCnt[j])
	st.MemOps = k.memops[j]
	st.CaseCounts[gcd.Case1] = int(k.tailIters[j])
	if early {
		st.EarlyTerminated = true
		res.G = nil
	} else {
		g := k.natFromLane(j)
		if g.IsOne() {
			res.G = one
		} else {
			res.G = g.Clone()
		}
	}
	k.slot[j] = -1
	k.occupied--
	k.Telemetry.Retirements++
	if k.next < len(k.batch) {
		k.load(j, true)
	}
}

// natFromLane converts lane j's X column into the conversion scratch.
// The returned Nat is only valid until the next retirement.
func (k *Kernel) natFromLane(j int) *mpnat.Nat {
	xm, _ := k.lanePlanes(j)
	ws := k.convWords[:0]
	for i := 0; i < int(k.lx[j]); i++ {
		v := xm[i*k.l+j]
		ws = append(ws, uint32(v), uint32(v>>32))
	}
	k.convWords = ws
	return k.conv.SetWords(ws)
}
