package subprod

import (
	"context"
	"math/big"
)

// one is the shared constant 1, the cofactor residue above the root
// (P/P). It is never written.
var one = big.NewInt(1)

// descentScratch is one worker's division state for a descent: the
// quotient QuoRem discards, the two reduced factors and their product.
type descentScratch struct {
	quo, zc, sc, prod big.Int
}

// Cofactors returns, for every leaf n_i of t, z_i = (P/n_i) mod n_i,
// P being the product of all leaves. It pushes cofactor residues down
// the tree: above the top the residue is P/P = 1, and a node C with
// sibling S under parent T gets
//
//	z_C = (P/C) mod C = ((z_T mod C) * (S mod C)) mod C
//
// because P/C = (P/T)*S and C divides T; a promoted odd node (C = T)
// keeps z_T. T itself is never read, so t may stop at the root's two
// children (Options.SkipRoot). No node is squared and no residue is
// longer than its node. A leaf that divides the product of the others
// gets 0, and a leaf equal to 1 gets 0. A one-leaf tree has no descent
// level: its leaf gets 1 mod n without running the hooks.
func Cofactors(ctx context.Context, t *Tree, opt Options) ([]*big.Int, error) {
	return descend(ctx, t, one, opt, func(s *descentScratch, par, c, sib *big.Int) *big.Int {
		s.quo.QuoRem(par, c, &s.zc)
		if sib != nil {
			s.quo.QuoRem(sib, c, &s.sc)
			s.prod.Mul(&s.zc, &s.sc)
			s.quo.QuoRem(&s.prod, c, &s.zc)
		}
		return new(big.Int).Set(&s.zc)
	})
}

// Reduce returns x mod n_i for every leaf n_i of t, pushing x down the
// tree: each top node C gets x mod C, each node below gets its parent's
// residue mod C, and a promoted odd node keeps its parent's. Like
// Cofactors it never reads the root, so t may be built with SkipRoot.
// x must be non-negative. A one-leaf tree returns x mod n without
// running the hooks.
func Reduce(ctx context.Context, t *Tree, x *big.Int, opt Options) ([]*big.Int, error) {
	return descend(ctx, t, x, opt, func(s *descentScratch, par, c, _ *big.Int) *big.Int {
		s.quo.QuoRem(par, c, &s.zc)
		return new(big.Int).Set(&s.zc)
	})
}

// descend walks t from its top level to the leaves and returns the leaf
// residues. above is the residue over the top level, which every top
// node reads as its parent's; step computes a node's residue from its
// parent's residue par, the node c, and its sibling (nil for a node
// without one). A promoted odd node below the top keeps its parent's
// residue, which is already reduced mod its equal value; at the top,
// where above is unreduced, it goes through step with a nil sibling.
// Each level's residues are independent and fan out over Options.Workers
// with per-worker scratch; step copies each residue out at its own
// length.
func descend(ctx context.Context, t *Tree, above *big.Int, opt Options, step func(s *descentScratch, par, c, sib *big.Int) *big.Int) ([]*big.Int, error) {
	top := len(t.Levels) - 1
	if top == 0 && len(t.Levels[0]) == 1 {
		var s descentScratch
		return []*big.Int{step(&s, above, t.Levels[0][0], nil)}, nil
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
			next[i] = step(&scratch[w], par, nodes[i], sib)
		}); err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}
