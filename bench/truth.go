package main

import (
	"fmt"
	"math/big"
	"slices"

	"bulkgcd"
)

// subset restricts the truth to the keys at idx (in that order),
// renumbering them 0..len(idx)-1. Clusters left with one member and
// duplicate pairs left with one side are dropped.
func (t *truth) subset(idx []int) *truth {
	pos := make(map[int]int, len(idx))
	for p, i := range idx {
		pos[i] = p
	}
	out := &truth{}
	for _, c := range t.Clusters {
		var ms []int
		for _, m := range c.Members {
			if p, ok := pos[m]; ok {
				ms = append(ms, p)
			}
		}
		if len(ms) >= 2 {
			slices.Sort(ms)
			out.Clusters = append(out.Clusters, cluster{Prime: c.Prime, Members: ms})
		}
	}
	for _, d := range t.Duplicates {
		i, iok := pos[d[0]]
		j, jok := pos[d[1]]
		if iok && jok {
			out.Duplicates = append(out.Duplicates, [2]int{min(i, j), max(i, j)})
		}
	}
	return out
}

// broken counts the keys a complete scan must factor.
func (t *truth) broken() int {
	n := 0
	for _, c := range t.Clusters {
		n += len(c.Members)
	}
	return n
}

// checkReport compares a scan's Report with the truth: every cluster
// member factored into its cluster prime and cofactor with a valid
// private exponent and a partner from its cluster, nothing else
// factored, and exactly the planted duplicate pairs reported.
func checkReport(t *truth, moduli []*big.Int, rep *bulkgcd.Report) error {
	if rep.Canceled || len(rep.BadPairs) > 0 || len(rep.Quarantined) > 0 {
		return fmt.Errorf("incomplete run: canceled=%v bad pairs=%d quarantined=%d",
			rep.Canceled, len(rep.BadPairs), len(rep.Quarantined))
	}
	if rep.Engine != bulkgcd.EngineBatch {
		n := int64(len(moduli))
		if rep.Pairs != n*(n-1)/2 || rep.TotalPairs != rep.Pairs {
			return fmt.Errorf("covered %d of %d pairs, want %d", rep.Pairs, rep.TotalPairs, n*(n-1)/2)
		}
	}
	want := map[int]int{} // key -> cluster
	for ci, c := range t.Clusters {
		for _, m := range c.Members {
			want[m] = ci
		}
	}
	if len(rep.Broken) != len(want) {
		return fmt.Errorf("factored %d keys, want %d", len(rep.Broken), len(want))
	}
	e := big.NewInt(exponent)
	one := big.NewInt(1)
	for _, bk := range rep.Broken {
		ci, ok := want[bk.Index]
		if !ok {
			return fmt.Errorf("key %d factored but shares no prime", bk.Index)
		}
		c := t.Clusters[ci]
		p, _ := new(big.Int).SetString(c.Prime, 16)
		n := moduli[bk.Index]
		q := new(big.Int).Quo(n, p)
		lo, hi := p, q
		if lo.Cmp(hi) > 0 {
			lo, hi = hi, lo
		}
		if bk.N == nil || bk.N.Cmp(n) != 0 || bk.P == nil || bk.Q == nil || bk.P.Cmp(lo) != 0 || bk.Q.Cmp(hi) != 0 {
			return fmt.Errorf("key %d: wrong modulus or factors", bk.Index)
		}
		if bk.D == nil {
			return fmt.Errorf("key %d: private exponent not recovered", bk.Index)
		}
		// e*d == 1 modulo lcm(p-1, q-1) holds for both the phi and the
		// lambda form of the private exponent.
		p1, q1 := new(big.Int).Sub(lo, one), new(big.Int).Sub(hi, one)
		g := new(big.Int).GCD(nil, nil, p1, q1)
		lambda := new(big.Int).Mul(p1, q1)
		lambda.Quo(lambda, g)
		ed := new(big.Int).Mul(e, bk.D)
		if ed.Mod(ed, lambda).Cmp(one) != 0 {
			return fmt.Errorf("key %d: wrong private exponent", bk.Index)
		}
		// Batch GCD finds a key's shared portion, not its partner, and
		// reports the partner as -1.
		partnerOK := bk.FoundWith != bk.Index && slices.Contains(c.Members, bk.FoundWith)
		if rep.Engine == bulkgcd.EngineBatch {
			partnerOK = bk.FoundWith == -1
		}
		if !partnerOK {
			return fmt.Errorf("key %d: partner %d is not in its cluster", bk.Index, bk.FoundWith)
		}
	}
	got := map[[2]int]bool{}
	for _, d := range rep.Duplicates {
		got[[2]int{min(d[0], d[1]), max(d[0], d[1])}] = true
	}
	if len(got) != len(t.Duplicates) || len(rep.Duplicates) != len(t.Duplicates) {
		return fmt.Errorf("reported %d duplicate pairs, want %d", len(rep.Duplicates), len(t.Duplicates))
	}
	for _, d := range t.Duplicates {
		if !got[d] {
			return fmt.Errorf("duplicate pair %v not reported", d)
		}
	}
	return nil
}

// verdict is one registry verdict in the wire form of `rsafactor watch`;
// in-process registry verdicts are converted to it.
type verdict struct {
	Index    int       `json:"index"`
	Kind     string    `json:"kind"`
	G        string    `json:"g,omitempty"`
	Partners []partner `json:"partners,omitempty"`
}

type partner struct {
	Index     int    `json:"index"`
	Factor    string `json:"factor"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

func fromKeyVerdict(v bulkgcd.KeyVerdict) verdict {
	out := verdict{Index: v.Index, Kind: v.Kind.String()}
	if v.G != nil && v.G.BitLen() > 1 {
		out.G = v.G.Text(16)
	}
	for _, p := range v.Partners {
		out.Partners = append(out.Partners, partner{Index: p.Index, Factor: p.Factor.Text(16), Duplicate: p.Duplicate})
	}
	return out
}

// registryOracle replays a submission order against the truth. Keys may
// reach the registry in another order than they were sent (two
// connections race), so each verdict is checked against the order the
// registry actually assigned, read back from the verdicts' indices.
type registryOracle struct {
	t      *truth
	moduli []*big.Int
	order  []int // registry index -> corpus key; -1 while unknown
}

func newRegistryOracle(t *truth, moduli []*big.Int) *registryOracle {
	return &registryOracle{t: t, moduli: moduli}
}

// assign records that corpus key k received registry index r.
func (o *registryOracle) assign(r, k int) error {
	if r < 0 {
		return fmt.Errorf("key %d was rejected (index %d)", k, r)
	}
	for len(o.order) <= r {
		o.order = append(o.order, -1)
	}
	if o.order[r] != -1 {
		return fmt.Errorf("registry index %d assigned to keys %d and %d", r, o.order[r], k)
	}
	o.order[r] = k
	return nil
}

// expect returns the verdict the registry must give each index of the
// recorded order, and each index's final shared portion (absent for a
// key that never shares a factor).
func (o *registryOracle) expect() ([]verdict, map[int]string, error) {
	clusterOf := map[int]int{}
	for ci, c := range o.t.Clusters {
		for _, m := range c.Members {
			clusterOf[m] = ci
		}
	}
	first := map[string]int{} // modulus -> first registry index
	seen := map[int][]int{}   // cluster -> registry indices so far
	final := map[int]string{} // registry index -> final shared portion
	out := make([]verdict, len(o.order))
	for r, k := range o.order {
		if k < 0 {
			return nil, nil, fmt.Errorf("registry index %d was never acknowledged", r)
		}
		n := o.moduli[k].Text(16)
		v := verdict{Index: r, Kind: "clean"}
		if j, ok := first[n]; ok {
			v.Kind, v.G = "duplicate", n
			v.Partners = []partner{{Index: j, Factor: n, Duplicate: true}}
			final[r], final[j] = n, n
		} else {
			first[n] = r
		}
		if ci, ok := clusterOf[k]; ok {
			prime := o.t.Clusters[ci].Prime
			if prev := seen[ci]; len(prev) > 0 {
				v.Kind, v.G = "shared", prime
				for _, j := range prev {
					v.Partners = append(v.Partners, partner{Index: j, Factor: prime})
					final[j] = prime
				}
				final[r] = prime
			}
			seen[ci] = append(seen[ci], r)
		}
		out[r] = v
	}
	return out, final, nil
}

// sameVerdict compares kind, shared portion and partner set.
func sameVerdict(got, want verdict) bool {
	if got.Index != want.Index || got.Kind != want.Kind || got.G != want.G || len(got.Partners) != len(want.Partners) {
		return false
	}
	key := func(p partner) string { return fmt.Sprintf("%d/%s/%v", p.Index, p.Factor, p.Duplicate) }
	g := make([]string, len(got.Partners))
	w := make([]string, len(want.Partners))
	for i := range got.Partners {
		g[i], w[i] = key(got.Partners[i]), key(want.Partners[i])
	}
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// brokenEntry is one element of GET /broken.
type brokenEntry struct {
	Index int    `json:"index"`
	G     string `json:"g"`
}

// checkBroken checks a /broken listing against the final shared portions.
// A listing taken mid-stream may omit keys whose partner had not arrived
// yet; the last listing (complete) must match exactly.
func checkBroken(list []brokenEntry, final map[int]string, complete bool) error {
	for _, b := range list {
		want, ok := final[b.Index]
		if !ok || b.G != want {
			return fmt.Errorf("/broken lists index %d with a wrong shared portion", b.Index)
		}
	}
	if complete && len(list) != len(final) {
		return fmt.Errorf("/broken lists %d keys, want %d", len(list), len(final))
	}
	return nil
}
