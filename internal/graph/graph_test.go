package graph

import (
	"reflect"
	"slices"
	"testing"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := NewDirected()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if a2 := g.AddNode("a"); a2 != a {
		t.Errorf("re-adding node changed index: %d then %d", a, a2)
	}
	if a == b {
		t.Error("distinct nodes share an index")
	}
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
}

func TestAddEdgeCreatesNodesAndDedupes(t *testing.T) {
	g := NewDirected()
	if !g.AddEdge("x", "y", PageLink) {
		t.Error("first AddEdge reported duplicate")
	}
	if g.AddEdge("x", "y", PageLink) {
		t.Error("duplicate AddEdge reported new")
	}
	if !g.AddEdge("x", "y", SemanticLink) {
		t.Error("same pair different kind should be a new edge")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Errorf("nodes=%d edges=%d, want 2 and 2", g.NumNodes(), g.NumEdges())
	}
	if !hasEdge(g, "x", "y", PageLink) || !hasEdge(g, "x", "y", SemanticLink) {
		t.Error("inserted edges missing")
	}
	if hasEdge(g, "y", "x", PageLink) {
		t.Error("reverse edge present")
	}
}

// hasEdge reports whether g holds the (from, to, kind) edge.
func hasEdge(g *Directed, from, to string, kind LinkKind) bool {
	fi, okFrom := g.Index(from)
	ti, okTo := g.Index(to)
	return okFrom && okTo && slices.Contains(g.Edges(), Edge{From: fi, To: ti, Kind: kind})
}

func TestOutDegreeByKind(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b", PageLink)
	g.AddEdge("a", "c", PageLink)
	g.AddEdge("a", "b", SemanticLink)
	ai, _ := g.Index("a")
	if d := g.OutDegree(ai); d != 3 {
		t.Errorf("OutDegree all = %d, want 3", d)
	}
	if d := g.OutDegree(ai, PageLink); d != 2 {
		t.Errorf("OutDegree page = %d, want 2", d)
	}
	if d := g.OutDegree(ai, SemanticLink); d != 1 {
		t.Errorf("OutDegree semantic = %d, want 1", d)
	}
}

func TestDangling(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b", PageLink)
	g.AddNode("c")
	bi, _ := g.Index("b")
	ci, _ := g.Index("c")
	d := g.Dangling()
	if !reflect.DeepEqual(d, []int{bi, ci}) {
		t.Errorf("Dangling = %v, want [%d %d]", d, bi, ci)
	}
	// With only semantic links considered, a is dangling too.
	if got := len(g.Dangling(SemanticLink)); got != 3 {
		t.Errorf("semantic dangling count = %d, want 3", got)
	}
}

func TestInDegreesAndEdges(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b", PageLink)
	g.AddEdge("c", "b", SemanticLink)
	g.AddEdge("b", "a", PageLink)
	in := g.InDegrees()
	bi, _ := g.Index("b")
	ai, _ := g.Index("a")
	if in[bi] != 2 || in[ai] != 1 {
		t.Errorf("InDegrees = %v", in)
	}
	if len(g.Edges()) != 3 {
		t.Errorf("Edges count = %d, want 3", len(g.Edges()))
	}
}

func TestSelfLoopAllowedInDirected(t *testing.T) {
	g := NewDirected()
	if !g.AddEdge("a", "a", PageLink) {
		t.Fatal("self-loop rejected")
	}
	ai, _ := g.Index("a")
	if g.OutDegree(ai) != 1 {
		t.Error("self-loop not counted in out-degree")
	}
}

func TestLinkKindString(t *testing.T) {
	if PageLink.String() != "page" || SemanticLink.String() != "semantic" {
		t.Error("LinkKind.String misnames kinds")
	}
	if LinkKind(9).String() == "" {
		t.Error("unknown LinkKind should still render")
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1)  // self-loop ignored
	g.AddEdge(-1, 2) // out of range ignored
	want := [][]int{{1}, {0, 2}, {1}, nil}
	if got := neighbors(g); !reflect.DeepEqual(got, want) {
		t.Errorf("neighbours = %v, want %v (symmetric, no self-loop)", got, want)
	}
}

// neighbors lists the sorted neighbours of every vertex of g.
func neighbors(g *Undirected) [][]int {
	out := make([][]int, g.N())
	for v := range out {
		for u := range g.NeighborSet(v) {
			out[v] = append(out[v], u)
		}
		slices.Sort(out[v])
	}
	return out
}

func TestFromAdjacencyMatrix(t *testing.T) {
	m := [][]float64{
		{1, 1, 0},
		{0, 0, 1},
		{0, 0, 0},
	}
	g := FromAdjacencyMatrix(m)
	want := [][]int{{1}, {0, 2}, {1}}
	if got := neighbors(g); !reflect.DeepEqual(got, want) {
		t.Errorf("neighbours = %v, want %v (diagonal ignored)", got, want)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewUndirected(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}
