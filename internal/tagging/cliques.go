package tagging

import (
	"sort"

	"repro/internal/graph"
)

// CliqueResult carries the maximal cliques of a tag graph plus the solver's
// recursion accounting, used by the Fig.-3-style ablation comparing the
// basic Bron–Kerbosch algorithm against the pivoting variant (the paper's
// footnote 3: the base implementation was "extended to optimize candidate
// tag selection and minimize recursion steps").
type CliqueResult struct {
	Cliques        [][]int // each sorted ascending; list sorted lexically
	RecursionSteps int
}

// BronKerboschBasic enumerates all maximal cliques with the original
// Algorithm 457 recursion (no pivoting).
func BronKerboschBasic(g *graph.Undirected) *CliqueResult {
	res := &CliqueResult{}
	var r, p, x []int
	for v := 0; v < g.N(); v++ {
		p = append(p, v)
	}
	bkBasic(g, r, p, x, res)
	sortCliques(res.Cliques)
	return res
}

func bkBasic(g *graph.Undirected, r, p, x []int, res *CliqueResult) {
	res.RecursionSteps++
	if len(p) == 0 && len(x) == 0 {
		clique := append([]int(nil), r...)
		sort.Ints(clique)
		res.Cliques = append(res.Cliques, clique)
		return
	}
	// Iterate over a copy: p mutates inside the loop.
	candidates := append([]int(nil), p...)
	for _, v := range candidates {
		nv := g.NeighborSet(v)
		bkBasic(g,
			append(r, v),
			intersect(p, nv),
			intersect(x, nv),
			res)
		p = remove(p, v)
		x = append(x, v)
	}
}

// BronKerboschPivot enumerates all maximal cliques using Tomita-style
// pivoting: the pivot u maximizes |P ∩ N(u)|, and only P \ N(u) is
// expanded, which prunes the recursion tree sharply on dense graphs.
func BronKerboschPivot(g *graph.Undirected) *CliqueResult {
	res := &CliqueResult{}
	var r, p, x []int
	for v := 0; v < g.N(); v++ {
		p = append(p, v)
	}
	bkPivot(g, r, p, x, res)
	sortCliques(res.Cliques)
	return res
}

func bkPivot(g *graph.Undirected, r, p, x []int, res *CliqueResult) {
	res.RecursionSteps++
	if len(p) == 0 && len(x) == 0 {
		clique := append([]int(nil), r...)
		sort.Ints(clique)
		res.Cliques = append(res.Cliques, clique)
		return
	}
	// Choose pivot u from P ∪ X with the most neighbours in P.
	pivot, best := -1, -1
	for _, u := range p {
		c := countIntersect(p, g.NeighborSet(u))
		if c > best {
			best, pivot = c, u
		}
	}
	for _, u := range x {
		c := countIntersect(p, g.NeighborSet(u))
		if c > best {
			best, pivot = c, u
		}
	}
	var expand []int
	if pivot >= 0 {
		np := g.NeighborSet(pivot)
		for _, v := range p {
			if _, ok := np[v]; !ok {
				expand = append(expand, v)
			}
		}
	} else {
		expand = append(expand, p...)
	}
	for _, v := range expand {
		nv := g.NeighborSet(v)
		bkPivot(g,
			append(r, v),
			intersect(p, nv),
			intersect(x, nv),
			res)
		p = remove(p, v)
		x = append(x, v)
	}
}

func intersect(set []int, with map[int]struct{}) []int {
	var out []int
	for _, v := range set {
		if _, ok := with[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

func countIntersect(set []int, with map[int]struct{}) int {
	n := 0
	for _, v := range set {
		if _, ok := with[v]; ok {
			n++
		}
	}
	return n
}

func remove(set []int, v int) []int {
	for i, u := range set {
		if u == v {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}

func sortCliques(cs [][]int) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// CliqueMembership maps each vertex to the cliques containing it (indices
// into the clique list).
func CliqueMembership(n int, cliques [][]int) [][]int {
	member := make([][]int, n)
	for ci, c := range cliques {
		for _, v := range c {
			member[v] = append(member[v], ci)
		}
	}
	return member
}
