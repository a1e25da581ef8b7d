// Package subprod holds the subproduct machinery shared by the two
// product-based attack engines: the level-parallel product tree that
// batch GCD (internal/batchgcd) builds over the whole corpus, and the
// per-tile subproducts that the hybrid product-filter engine
// (internal/bulk) caches under a memory budget.
//
// Both engines reduce the same primitive — multiply a set of moduli into
// one integer so a single division+GCD can interrogate all of them at
// once — so the construction lives here and is configured by the caller:
// big.Int trees with per-level hooks for batch GCD's observability,
// plain mpnat products for the hybrid engine's word-level filter path
// and the registry's forest seed. Both representations multiply large
// nodes with math/big (mpnat.MulScratch.Mul routes products of 24 or
// more words through it), so they differ only in the node layout.
package subprod

import (
	"context"
	"fmt"
	"math/big"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
)

// Tree holds the levels of a product tree: level 0 is the input slice,
// the last level is the single full product. An odd node at the end of a
// level is promoted unchanged, so parent i covers children 2i and 2i+1.
type Tree struct {
	Levels [][]*big.Int
}

// Root returns the product of all leaves.
func (t *Tree) Root() *big.Int {
	top := t.Levels[len(t.Levels)-1]
	return top[0]
}

// NatTree is the mpnat twin of Tree: the same level layout and
// odd-node promotion rule, with nodes held in the packed 32-bit word
// representation the kernels and the hybrid filter consume directly.
type NatTree struct {
	Levels [][]*mpnat.Nat
}

// Root returns the product of all leaves.
func (t *NatTree) Root() *mpnat.Nat {
	top := t.Levels[len(t.Levels)-1]
	return top[0]
}

// BuildOptions configures Build. The zero value builds serially with no
// hooks.
type BuildOptions struct {
	// Workers is the fan-out width within each level (the level's
	// multiplications are independent); <= 1 runs inline.
	Workers int
	// OnLevel, when non-nil, wraps each level's computation: level is the
	// 1-based index of the level being built, nodes the number of
	// multiplications in it. The hook must invoke run exactly once and
	// propagate its error (batch GCD threads its tracing/timing phase
	// wrapper through here).
	OnLevel func(level, nodes int, run func() error) error
	// OnNode, when non-nil, is called once per completed multiplication
	// (possibly concurrently from several workers).
	OnNode func()
	// Metrics, when non-nil, instruments the per-level scheduler pools
	// (engine_steals_total and friends).
	Metrics *obs.Registry
}

// buildLevels is the one tree-construction loop both representations
// share: pair-and-promote bottom-up, level-parallel on engine.Run, with
// the OnLevel/OnNode observability hooks threaded through identically.
// The representation enters only as the mul callback (worker is the
// engine.Run worker index, for per-worker scratch), so the big.Int and
// mpnat trees cannot drift apart structurally — the historical bug this
// replaces was exactly two hand-rolled copies of this loop disagreeing
// on representation details.
func buildLevels[T any](ctx context.Context, leaves []T, opt BuildOptions, mul func(worker int, x, y T) T) ([][]T, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("subprod: empty input")
	}
	level := make([]T, len(leaves))
	copy(level, leaves)
	levels := [][]T{level}
	for len(level) > 1 {
		pairs := len(level) / 2
		next := make([]T, (len(level)+1)/2)
		src := level
		workers := opt.Workers
		if workers < 1 {
			workers = 1
		}
		run := func() error {
			return engine.Run(ctx, pairs, engine.PoolOptions{Workers: workers, Metrics: opt.Metrics}, func(i, w int) {
				next[i] = mul(w, src[2*i], src[2*i+1])
				if opt.OnNode != nil {
					opt.OnNode()
				}
			})
		}
		var err error
		if opt.OnLevel != nil {
			err = opt.OnLevel(len(levels), pairs, run)
		} else {
			err = run()
		}
		if err != nil {
			return nil, err
		}
		if len(level)%2 == 1 {
			next[pairs] = level[len(level)-1] // odd node promotes unchanged
		}
		levels = append(levels, next)
		level = next
	}
	return levels, nil
}

// Build constructs the big.Int product tree of the leaves bottom-up.
// The leaf slice is aliased as level 0, never modified.
func Build(ctx context.Context, leaves []*big.Int, opt BuildOptions) (*Tree, error) {
	levels, err := buildLevels(ctx, leaves, opt, func(_ int, x, y *big.Int) *big.Int {
		return new(big.Int).Mul(x, y)
	})
	if err != nil {
		return nil, err
	}
	return &Tree{Levels: levels}, nil
}

// BuildNat constructs the mpnat product tree of the leaves bottom-up on
// the same pair-and-promote path as Build, multiplying with one
// mpnat.MulScratch per worker. The leaf slice is aliased as level 0,
// never modified; every interior node is freshly allocated and never
// aliases a leaf.
func BuildNat(ctx context.Context, leaves []*mpnat.Nat, opt BuildOptions) (*NatTree, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	scratch := make([]*mpnat.MulScratch, workers)
	for i := range scratch {
		scratch[i] = new(mpnat.MulScratch)
	}
	levels, err := buildLevels(ctx, leaves, opt, func(w int, x, y *mpnat.Nat) *mpnat.Nat {
		return scratch[w].Mul(new(mpnat.Nat), x, y)
	})
	if err != nil {
		return nil, err
	}
	return &NatTree{Levels: levels}, nil
}

// ProductNat multiplies the moduli into a single Nat by balanced
// pairwise reduction on the same buildLevels path as BuildNat (balanced
// operands keep math/big's Karatsuba in its best regime). An
// empty slice yields 1. The inputs are never modified and the result
// never aliases them, so cached products are safe to share read-only
// across workers.
func ProductNat(ms []*mpnat.Nat) *mpnat.Nat {
	switch len(ms) {
	case 0:
		return mpnat.New(1)
	case 1:
		return ms[0].Clone()
	}
	t, err := BuildNat(context.Background(), ms, BuildOptions{})
	if err != nil {
		// Unreachable: the input is non-empty and a background context
		// with no hooks cannot fail.
		panic("subprod: ProductNat: " + err.Error())
	}
	return t.Root()
}

// NatBytes returns the in-memory size the cache accounts for a Nat.
func NatBytes(n *mpnat.Nat) int64 {
	return int64(n.Len()) * 4
}
