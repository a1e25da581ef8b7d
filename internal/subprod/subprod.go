// Package subprod holds the subproduct machinery shared by the three
// product-based paths: the level-parallel product tree that batch GCD
// (internal/batchgcd) builds over the whole corpus, the per-cell tile
// trees and column tile products of the hybrid product-filter engine
// (internal/bulk), and the registry's persistent forest
// (internal/registry).
//
// All three reduce the same primitive — multiply a set of moduli into
// one integer so a single division+GCD can interrogate all of them at
// once — so there is one node representation, a compact *big.Int, one
// construction loop (Build), and three descents back down a built tree
// on one level loop: Prefixes, one integer times the leaves to the left
// modulo each leaf (batch GCD's prefix pass, the hybrid diagonal cell's
// filter, and the registry's batch check, which pushes the history's
// residue down a batch's tree); Suffixes, its mirror, the leaves to
// the right (batch GCD's suffix pass); and Reduce, one integer modulo
// each leaf (batch GCD's candidate pass and the hybrid cross cell's
// filter). All three are configured by the caller with the same
// per-level hooks as Build, for batch GCD's observability, and all
// three run on a tree built with or without SkipRoot.
//
// Every node is compacted after its multiplication (Mul): math/big's
// Karatsuba leaves a product with max(6k, m+n) words of capacity, about
// three times its length, and a tree, table or forest that retains
// those products holds that slack for its whole life.
package subprod

import (
	"context"
	"fmt"
	"math/big"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/obs"
)

// Tree holds the levels of a product tree: level 0 is the input slice,
// the last level is the single full product, or the root's two children
// when the tree was built with Options.SkipRoot. An odd node at the
// end of a level is promoted unchanged, so parent i covers children 2i
// and 2i+1.
type Tree struct {
	Levels [][]*big.Int
}

// Root returns the product of all leaves. It panics on a tree built
// with SkipRoot, whose top level is the root's two children: neither of
// them is the product.
func (t *Tree) Root() *big.Int {
	top := t.Levels[len(t.Levels)-1]
	if len(top) != 1 {
		panic(fmt.Sprintf("subprod: Root of a tree that stops at %d nodes below its root", len(top)))
	}
	return top[0]
}

// Mul returns x*y as a fresh big.Int whose storage is exactly the
// product's length, multiplying into scratch first. scratch must not
// alias x or y; keeping one per goroutine lets math/big reuse its
// oversized Karatsuba buffer across calls while the returned node holds
// none of that slack.
func Mul(scratch, x, y *big.Int) *big.Int {
	scratch.Mul(x, y)
	return compact(scratch)
}

// compact returns a copy of x in storage of exactly len(x.Bits()) words.
func compact(x *big.Int) *big.Int {
	w := make([]big.Word, len(x.Bits()))
	copy(w, x.Bits())
	return new(big.Int).SetBits(w)
}

// Options configures Build and the descents (Prefixes, Suffixes,
// Reduce). The zero value runs serially with no hooks.
type Options struct {
	// Workers is the fan-out width within each level (the level's
	// multiplications or residues are independent); <= 1 runs inline.
	Workers int
	// OnLevel, when non-nil, wraps each level's computation: level is the
	// index of the level being computed (1-based for Build, whose level 0
	// is the input; the tree level whose residues are computed for a
	// descent), nodes the number of multiplications or residues in it.
	// The hook must invoke run exactly once and propagate its error
	// (batch GCD threads its tracing/timing phase wrapper through here).
	OnLevel func(level, nodes int, run func() error) error
	// OnNode, when non-nil, is called once per completed multiplication
	// or residue (possibly concurrently from several workers).
	OnNode func()
	// Metrics, when non-nil, instruments the per-level scheduler pools
	// (engine_worker_busy_seconds).
	Metrics *obs.Registry
	// SkipRoot, read by Build only, stops the tree at the root's two
	// children and never makes the root multiplication, the largest in
	// the tree. The descents need the siblings under the root but not
	// their product. A one-leaf tree still ends at its leaf, which is its
	// root.
	SkipRoot bool
}

// level runs fn(i, w) for each of a level's nodes on the scheduler pool
// (w is the stable worker index, for per-worker scratch), wrapped in
// OnLevel and followed by OnNode per node.
func (opt *Options) level(ctx context.Context, level, nodes int, fn func(i, w int)) error {
	run := func() error {
		return engine.Run(ctx, nodes, engine.PoolOptions{Workers: max(opt.Workers, 1), Metrics: opt.Metrics}, func(i, w int) {
			fn(i, w)
			if opt.OnNode != nil {
				opt.OnNode()
			}
		})
	}
	if opt.OnLevel != nil {
		return opt.OnLevel(level, nodes, run)
	}
	return run()
}

// Build constructs the product tree of the leaves bottom-up,
// pair-and-promote, each level's multiplications fanned out on
// engine.Run with one scratch big.Int per worker (Mul). The leaf slice
// is aliased as level 0, never modified; every product is freshly
// allocated and compact (a promoted odd node stays the same pointer).
// Every level above two nodes halves to a level of two before the root,
// so SkipRoot drops exactly the last multiplication.
func Build(ctx context.Context, leaves []*big.Int, opt Options) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("subprod: empty input")
	}
	scratch := make([]big.Int, max(opt.Workers, 1))
	level := make([]*big.Int, len(leaves))
	copy(level, leaves)
	levels := [][]*big.Int{level}
	top := 1
	if opt.SkipRoot {
		top = 2
	}
	for len(level) > top {
		pairs := len(level) / 2
		next := make([]*big.Int, (len(level)+1)/2)
		src := level
		if err := opt.level(ctx, len(levels), pairs, func(i, w int) {
			next[i] = Mul(&scratch[w], src[2*i], src[2*i+1])
		}); err != nil {
			return nil, err
		}
		if len(level)%2 == 1 {
			next[pairs] = level[len(level)-1] // odd node promotes unchanged
		}
		levels = append(levels, next)
		level = next
	}
	return &Tree{Levels: levels}, nil
}

// Product multiplies the moduli into one integer by balanced pairwise
// reduction on Build's path (balanced operands keep math/big's
// Karatsuba in its best regime). An empty slice yields 1. The inputs are
// never modified and the result never aliases them, so cached products
// are safe to share read-only across workers.
func Product(ms []*big.Int) *big.Int {
	switch len(ms) {
	case 0:
		return big.NewInt(1)
	case 1:
		return compact(ms[0])
	}
	t, err := Build(context.Background(), ms, Options{})
	if err != nil {
		// Unreachable: the input is non-empty and a background context
		// with no hooks cannot fail.
		panic("subprod: Product: " + err.Error())
	}
	return t.Root()
}
