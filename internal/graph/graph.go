// Package graph provides the directed-graph substrate of the search system.
//
// Metadata pages in the paper carry two linking structures at once: ordinary
// wiki links from page to page, and semantic links induced by RDF properties.
// This package models a single directed graph with typed (labelled) edges so
// that internal/pagerank can weight the two structures independently when it
// builds the transition matrix (the paper's "double linking structure",
// Section III).
package graph

import "fmt"

// LinkKind distinguishes the two linking structures of a metadata page.
type LinkKind uint8

const (
	// PageLink is a normal web/wiki link from one page to another.
	PageLink LinkKind = iota
	// SemanticLink is a link induced by an RDF property between pages.
	SemanticLink
)

// String returns a human-readable name for the link kind.
func (k LinkKind) String() string {
	switch k {
	case PageLink:
		return "page"
	case SemanticLink:
		return "semantic"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

type edge struct {
	to   int
	kind LinkKind
}

// Directed is a directed multigraph with string-identified nodes and typed
// edges. Parallel edges of the same kind between the same pair collapse into
// one. Node indexes are dense and stable in insertion order, which the
// matrix builders rely on.
type Directed struct {
	ids   []string
	index map[string]int
	adj   [][]edge
	seen  []map[edge]struct{}
	edges int
}

// NewDirected returns an empty graph.
func NewDirected() *Directed {
	return &Directed{index: make(map[string]int)}
}

// AddNode inserts a node if absent and returns its dense index.
func (g *Directed) AddNode(id string) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.index[id] = i
	g.ids = append(g.ids, id)
	g.adj = append(g.adj, nil)
	g.seen = append(g.seen, make(map[edge]struct{}))
	return i
}

// AddEdge inserts a directed edge of the given kind, creating missing nodes.
// Self-loops are permitted (a wiki page may reference itself); duplicate
// (from, to, kind) edges are ignored. It reports whether the edge was new.
func (g *Directed) AddEdge(from, to string, kind LinkKind) bool {
	fi := g.AddNode(from)
	ti := g.AddNode(to)
	e := edge{to: ti, kind: kind}
	if _, dup := g.seen[fi][e]; dup {
		return false
	}
	g.seen[fi][e] = struct{}{}
	g.adj[fi] = append(g.adj[fi], e)
	g.edges++
	return true
}

// NumNodes returns the node count.
func (g *Directed) NumNodes() int { return len(g.ids) }

// NumEdges returns the edge count (typed edges counted separately).
func (g *Directed) NumEdges() int { return g.edges }

// ID returns the string identifier of node i.
func (g *Directed) ID(i int) string { return g.ids[i] }

// Index returns the dense index of a node id.
func (g *Directed) Index(id string) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// IDs returns a copy of all node identifiers in index order.
func (g *Directed) IDs() []string {
	out := make([]string, len(g.ids))
	copy(out, g.ids)
	return out
}

// OutDegree returns the number of out-edges of node i restricted to the
// kinds listed; with no kinds it counts every edge.
func (g *Directed) OutDegree(i int, kinds ...LinkKind) int {
	if len(kinds) == 0 {
		return len(g.adj[i])
	}
	n := 0
	for _, e := range g.adj[i] {
		for _, k := range kinds {
			if e.kind == k {
				n++
				break
			}
		}
	}
	return n
}

// Dangling returns the indexes of nodes with no out-edges of the given kinds
// (no out-edges at all when none given). These are the paper's dangling
// pages that make the raw transition matrix sub-stochastic.
func (g *Directed) Dangling(kinds ...LinkKind) []int {
	var out []int
	for i := range g.adj {
		if g.OutDegree(i, kinds...) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// InDegrees returns the in-degree of every node, counting typed edges
// separately.
func (g *Directed) InDegrees() []int {
	in := make([]int, len(g.ids))
	for _, es := range g.adj {
		for _, e := range es {
			in[e.to]++
		}
	}
	return in
}

// EdgeList returns every edge as (from, to, kind) triples in a deterministic
// order: by from index, then insertion order.
type Edge struct {
	From, To int
	Kind     LinkKind
}

// Edges returns all edges in deterministic order.
func (g *Directed) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for i, es := range g.adj {
		for _, e := range es {
			out = append(out, Edge{From: i, To: e.to, Kind: e.kind})
		}
	}
	return out
}
