package subprod

import (
	"context"
	"math/big"

	"bulkgcd/internal/engine"
)

// descentScratch is one worker's division state for a descent: the
// quotient QuoRem discards, the two reduced factors and their product.
type descentScratch struct {
	quo, zc, sc, prod big.Int
}

// residue returns (par * sib) mod c, sib == nil meaning 1, as a fresh
// big.Int at its own length. Both factors are reduced before the
// multiplication, so no product is longer than twice c.
func (s *descentScratch) residue(par, c, sib *big.Int) *big.Int {
	s.quo.QuoRem(par, c, &s.zc)
	if sib != nil {
		s.quo.QuoRem(sib, c, &s.sc)
		s.prod.Mul(&s.zc, &s.sc)
		s.quo.QuoRem(&s.prod, c, &s.zc)
	}
	return new(big.Int).Set(&s.zc)
}

// Reduce returns x mod n_i for every leaf n_i of t, pushing x down the
// tree: each top node C gets x mod C, each node below gets its parent's
// residue mod C, and a promoted odd node keeps its parent's. It never
// reads the root, so t may be built with SkipRoot. x must be
// non-negative. A one-leaf tree returns x mod n without running the
// hooks.
func Reduce(ctx context.Context, t *Tree, x *big.Int, opt Options) ([]*big.Int, error) {
	return descend(ctx, t, x, opt, func(s *descentScratch, par, c, _ *big.Int, _ bool) *big.Int {
		return s.residue(par, c, nil)
	})
}

// Prefixes returns, for every leaf n_i of t, (x * n_0 * ... * n_{i-1})
// mod n_i: x times the product of the leaves left of n_i. It pushes
// prefix residues down the tree, z_C being x times the leaves left of C,
// mod C. Above the top that is x; a left child L of parent T gets
// z_T mod L, and a right child R, whose left sibling L holds the leaves
// between T's left edge and R's, gets
//
//	z_R = ((z_T mod R) * (L mod R)) mod R
//
// and a promoted odd node (C = T) keeps z_T. Like Reduce it never reads
// the root, so t may be built with SkipRoot. x must be non-negative and
// is only read. A one-leaf tree returns x mod n without running the
// hooks. With x = 1, gcd(n_i, z_i) > 1 exactly when n_i shares a prime
// with a leaf to its left (batch GCD's prefix pass and the hybrid
// engine's diagonal cells); a leaf equal to 1 gets 0.
func Prefixes(ctx context.Context, t *Tree, x *big.Int, opt Options) ([]*big.Int, error) {
	return descend(ctx, t, x, opt, func(s *descentScratch, par, c, sib *big.Int, right bool) *big.Int {
		if !right {
			sib = nil
		}
		return s.residue(par, c, sib)
	})
}

// Suffixes returns, for every leaf n_i of t, (x * n_{i+1} * ... *
// n_{m-1}) mod n_i: x times the product of the leaves right of n_i. It
// mirrors Prefixes: a right child R of parent T gets z_T mod R, a left
// child L, whose right sibling R holds the leaves between L's right
// edge and T's, gets
//
//	z_L = ((z_T mod L) * (R mod L)) mod L
//
// and a promoted odd node, which has no right sibling, keeps z_T. It
// never reads the root, x must be non-negative and is only read, and a
// one-leaf tree returns x mod n without running the hooks. Prefixes(1)
// times Suffixes(1) at leaf i is (P/n_i) mod n_i up to one reduction.
func Suffixes(ctx context.Context, t *Tree, x *big.Int, opt Options) ([]*big.Int, error) {
	return descend(ctx, t, x, opt, func(s *descentScratch, par, c, sib *big.Int, right bool) *big.Int {
		if right {
			sib = nil
		}
		return s.residue(par, c, sib)
	})
}

// descend walks t from its top level to the leaves and returns the leaf
// residues. above is the residue over the top level, which every top
// node reads as its parent's; step computes a node's residue from its
// parent's residue par, the node c, its sibling (nil for a node without
// one) and whether c is its parent's right child. A promoted odd node
// below the top keeps its parent's residue, which is already reduced
// mod its equal value; at the top, where above is unreduced, it goes
// through step with a nil sibling.
//
// Every node is one unit of engine.RunReady: it carries its parent's
// residue, and when its own is done it releases its children with it,
// or, at a leaf, writes its slot of the output. So a node starts as soon
// as its parent is done, not when its whole level is, and a parent's
// residue lives only until both of its children have computed theirs;
// no level's residues are kept. Workers keep per-worker scratch, and
// step copies each residue out at its own length.
func descend(ctx context.Context, t *Tree, above *big.Int, opt Options, step func(s *descentScratch, par, c, sib *big.Int, right bool) *big.Int) ([]*big.Int, error) {
	top := len(t.Levels) - 1
	if top == 0 && len(t.Levels[0]) == 1 {
		var s descentScratch
		return []*big.Int{step(&s, above, t.Levels[0][0], nil, false)}, nil
	}
	// node is one residue to compute: the node at index i of level lvl,
	// with its parent's residue.
	type node struct {
		lvl, i int
		par    *big.Int
	}
	// The ready list: nodes ready at once form an antichain of the tree,
	// so at most its leaf count, and twice that never grows (RunReady).
	roots := make([]node, len(t.Levels[top]), 2*len(t.Levels[0]))
	for i := range roots {
		roots[i] = node{top, i, above}
	}
	out := make([]*big.Int, len(t.Levels[0]))
	workers := max(opt.Workers, 1)
	scratch := make([]descentScratch, workers)
	err := engine.RunReady(ctx, roots, engine.PoolOptions{Workers: workers, Metrics: opt.Metrics}, func(n node, w int, release func(node)) {
		nodes := t.Levels[n.lvl]
		z := n.par // promoted odd node: C = T
		if j := n.i ^ 1; j < len(nodes) {
			z = step(&scratch[w], n.par, nodes[n.i], nodes[j], n.i&1 == 1)
		} else if n.lvl == top {
			z = step(&scratch[w], n.par, nodes[n.i], nil, false)
		}
		if opt.OnNode != nil {
			opt.OnNode()
		}
		if n.lvl == 0 {
			out[n.i] = z
			return
		}
		for c := 2 * n.i; c < min(2*n.i+2, len(t.Levels[n.lvl-1])); c++ {
			release(node{n.lvl - 1, c, z})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
