package subprod

import (
	"context"
	"math/big"
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
// below the top keeps its parent's
// residue, which is already reduced mod its equal value; at the top,
// where above is unreduced, it goes through step with a nil sibling.
// Each level's residues are independent and fan out over Options.Workers
// with per-worker scratch; step copies each residue out at its own
// length.
func descend(ctx context.Context, t *Tree, above *big.Int, opt Options, step func(s *descentScratch, par, c, sib *big.Int, right bool) *big.Int) ([]*big.Int, error) {
	top := len(t.Levels) - 1
	if top == 0 && len(t.Levels[0]) == 1 {
		var s descentScratch
		return []*big.Int{step(&s, above, t.Levels[0][0], nil, false)}, nil
	}
	scratch := make([]descentScratch, max(opt.Workers, 1))
	cur := []*big.Int{above}
	for lvl := top; lvl >= 0; lvl-- {
		nodes := t.Levels[lvl]
		next := make([]*big.Int, len(nodes))
		parent, atTop := cur, lvl == top
		if err := opt.level(ctx, lvl, len(nodes), func(i, w int) {
			par := parent[0]
			if !atTop {
				par = parent[i/2]
			}
			var sib *big.Int
			if j := i ^ 1; j < len(nodes) {
				sib = nodes[j]
			} else if !atTop {
				next[i] = par // promoted odd node: C = T
				return
			}
			next[i] = step(&scratch[w], par, nodes[i], sib, i&1 == 1)
		}); err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}
