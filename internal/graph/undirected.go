package graph

import "sort"

// Undirected is a simple undirected graph over dense integer vertices.
// It is the input shape of the Bron–Kerbosch clique algorithms in
// internal/tagging: vertex i is adjacent to vertex j iff the tag similarity
// matrix has a 1 at (i, j).
type Undirected struct {
	n   int
	adj []map[int]struct{}
}

// NewUndirected returns an undirected graph with n vertices and no edges.
func NewUndirected(n int) *Undirected {
	g := &Undirected{n: n, adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// FromAdjacencyMatrix builds an undirected graph from a square 0/1 matrix.
// Entry (i, j) != 0 for i != j creates the edge {i, j}; the diagonal is
// ignored. The matrix is symmetrised: an entry on either side suffices.
func FromAdjacencyMatrix(m [][]float64) *Undirected {
	g := NewUndirected(len(m))
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] != 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// N returns the vertex count.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Undirected) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
}

// NeighborSet returns the neighbour set of v as a map. The returned map
// aliases internal storage and must not be modified.
func (g *Undirected) NeighborSet(v int) map[int]struct{} { return g.adj[v] }

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted, ordered by their smallest vertex.
func (g *Undirected) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}
