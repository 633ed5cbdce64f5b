package tagging

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestNewTagDataNormalizes(t *testing.T) {
	td := NewTagData(map[string][]string{
		"wind":  {"P2", "P1", "P2"},
		"":      {"P1"},
		"empty": {},
		"snow":  {"P1"},
	})
	if !reflect.DeepEqual(td.Tags, []string{"snow", "wind"}) {
		t.Errorf("Tags = %v", td.Tags)
	}
	if !reflect.DeepEqual(td.Pages["wind"], []string{"P1", "P2"}) {
		t.Errorf("wind pages = %v", td.Pages["wind"])
	}
	if td.Frequency("wind") != 2 || td.Frequency("missing") != 0 {
		t.Error("Frequency wrong")
	}
}

func TestCosineSimilarity(t *testing.T) {
	td := NewTagData(map[string][]string{
		"a": {"P1", "P2"},
		"b": {"P1", "P2"},
		"c": {"P1", "P3"},
		"d": {"P4"},
	})
	if got := td.CosineSimilarity("a", "b"); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical sets similarity = %v", got)
	}
	if got := td.CosineSimilarity("a", "c"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-overlap similarity = %v", got)
	}
	if got := td.CosineSimilarity("a", "d"); got != 0 {
		t.Errorf("disjoint similarity = %v", got)
	}
	if got := td.CosineSimilarity("a", "missing"); got != 0 {
		t.Errorf("missing tag similarity = %v", got)
	}
	// Symmetry.
	if td.CosineSimilarity("a", "c") != td.CosineSimilarity("c", "a") {
		t.Error("similarity not symmetric")
	}
}

func TestSimilarityMatrixThreshold(t *testing.T) {
	td := NewTagData(map[string][]string{
		"a": {"P1", "P2"},
		"b": {"P1", "P2"},
		"c": {"P1", "P3"},
	})
	m := td.SimilarityMatrix(0.5)
	// a~b: 1.0 > 0.5 → edge; a~c: 0.5 not > 0.5 → no edge.
	ai, bi, ci := indexOf(td.Tags, "a"), indexOf(td.Tags, "b"), indexOf(td.Tags, "c")
	if m[ai][bi] != 1 || m[bi][ai] != 1 {
		t.Error("a-b edge missing")
	}
	if m[ai][ci] != 0 {
		t.Error("a-c edge should be cut by the strict threshold")
	}
	if m[ai][ai] != 0 {
		t.Error("diagonal must be 0")
	}
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// triangle plus pendant: vertices 0-1-2 complete, 3 attached to 2.
func pendantTriangle() *graph.Undirected {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	return g
}

func TestBronKerboschOnKnownGraph(t *testing.T) {
	want := [][]int{{0, 1, 2}, {2, 3}}
	for name, algo := range map[string]func(*graph.Undirected) *CliqueResult{
		"basic": BronKerboschBasic, "pivot": BronKerboschPivot,
	} {
		got := algo(pendantTriangle())
		if !reflect.DeepEqual(got.Cliques, want) {
			t.Errorf("%s cliques = %v, want %v", name, got.Cliques, want)
		}
		if got.RecursionSteps <= 0 {
			t.Errorf("%s recursion steps not counted", name)
		}
	}
}

func TestBronKerboschEmptyAndSingleton(t *testing.T) {
	empty := graph.NewUndirected(0)
	if got := BronKerboschPivot(empty); len(got.Cliques) != 1 || len(got.Cliques[0]) != 0 {
		// The empty vertex set is itself the unique maximal clique of the
		// empty graph under BK; accept either [] or [[]].
		if len(got.Cliques) != 0 {
			t.Errorf("empty graph cliques = %v", got.Cliques)
		}
	}
	single := graph.NewUndirected(1)
	got := BronKerboschPivot(single)
	if len(got.Cliques) != 1 || !reflect.DeepEqual(got.Cliques[0], []int{0}) {
		t.Errorf("singleton cliques = %v", got.Cliques)
	}
}

// bruteForceMaximalCliques enumerates maximal cliques by subset testing
// (reference for the property test; n must stay tiny).
func bruteForceMaximalCliques(g *graph.Undirected) [][]int {
	n := g.N()
	isClique := func(mask int) bool {
		for a := 0; a < n; a++ {
			if mask&(1<<a) == 0 {
				continue
			}
			for b := a + 1; b < n; b++ {
				if mask&(1<<b) == 0 {
					continue
				}
				if _, ok := g.NeighborSet(a)[b]; !ok {
					return false
				}
			}
		}
		return true
	}
	var cliques []int
	for mask := 1; mask < 1<<n; mask++ {
		if !isClique(mask) {
			continue
		}
		// maximal if no superset is a clique
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			if isClique(mask | 1<<v) {
				maximal = false
				break
			}
		}
		if maximal {
			cliques = append(cliques, mask)
		}
	}
	var out [][]int
	for _, mask := range cliques {
		var c []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				c = append(c, v)
			}
		}
		out = append(out, c)
	}
	sortCliques(out)
	return out
}

func TestBronKerboschMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9) // up to 10 vertices
		g := graph.NewUndirected(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(a, b)
				}
			}
		}
		want := bruteForceMaximalCliques(g)
		basic := BronKerboschBasic(g).Cliques
		pivot := BronKerboschPivot(g).Cliques
		if !reflect.DeepEqual(basic, want) {
			t.Fatalf("trial %d: basic = %v, want %v", trial, basic, want)
		}
		if !reflect.DeepEqual(pivot, want) {
			t.Fatalf("trial %d: pivot = %v, want %v", trial, pivot, want)
		}
	}
}

func TestPivotNeverMoreStepsOnDenseGraphs(t *testing.T) {
	// On dense random graphs the pivoting variant should not recurse more
	// than the basic one (the paper's stated reason for the optimization).
	rng := rand.New(rand.NewSource(9))
	worse := 0
	for trial := 0; trial < 20; trial++ {
		n := 12
		g := graph.NewUndirected(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.7 {
					g.AddEdge(a, b)
				}
			}
		}
		if BronKerboschPivot(g).RecursionSteps > BronKerboschBasic(g).RecursionSteps {
			worse++
		}
	}
	if worse > 0 {
		t.Errorf("pivot variant recursed more on %d/20 dense graphs", worse)
	}
}

func TestCliqueMembership(t *testing.T) {
	member := CliqueMembership(4, [][]int{{0, 1, 2}, {2, 3}})
	if !reflect.DeepEqual(member[2], []int{0, 1}) {
		t.Errorf("vertex 2 membership = %v", member[2])
	}
	if len(member[3]) != 1 || member[3][0] != 1 {
		t.Errorf("vertex 3 membership = %v", member[3])
	}
}

func TestFontSizeEquation(t *testing.T) {
	// t_i = t_min → size 1 regardless of cliques.
	if got := FontSize(1, 1, 10, 5, 4, 2, 7); got != 1 {
		t.Errorf("min-frequency size = %d", got)
	}
	// Max frequency with no cliques: ceil(0 + 7·1) = 7.
	if got := FontSize(10, 1, 10, 0, 0, 1, 7); got != 7 {
		t.Errorf("max-frequency size = %d", got)
	}
	// Mid frequency: ceil(1·3/2 + 7·(5-1)/(10-1)) = ceil(1.5+3.111) = 5.
	if got := FontSize(5, 1, 10, 1, 3, 2, 7); got != 5 {
		t.Errorf("mid size = %d, want 5", got)
	}
	// Clique term pushing past f_max clamps.
	if got := FontSize(10, 1, 10, 10, 10, 1, 7); got != 7 {
		t.Errorf("clamped size = %d", got)
	}
	// Degenerate range (t_max == t_min) must not divide by zero; t_i is
	// not > t_min so size is 1.
	if got := FontSize(5, 5, 5, 3, 3, 2, 7); got != 1 {
		t.Errorf("degenerate range size = %d", got)
	}
}

func TestFontSizeBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		tmin := rng.Intn(10)
		tmax := tmin + rng.Intn(20)
		ti := tmin + rng.Intn(tmax-tmin+1)
		fmax := 1 + rng.Intn(10)
		c := rng.Intn(6)
		order := rng.Intn(6)
		total := 1 + rng.Intn(5)
		s := FontSize(ti, tmin, tmax, c, order, total, fmax)
		if s < 1 || s > fmax {
			t.Fatalf("FontSize(%d,%d,%d,%d,%d,%d,%d) = %d outside [1,%d]",
				ti, tmin, tmax, c, order, total, fmax, s, fmax)
		}
	}
}

func TestBuildCloudAppleExample(t *testing.T) {
	// Fig. 5: tag "Apple" belongs to two cliques (fruit context and
	// computer context). Construct tag data reproducing that shape.
	td := NewTagData(map[string][]string{
		"apple":  {"P1", "P2", "P3", "P4"},
		"pear":   {"P1", "P2"},
		"banana": {"P1", "P2"},
		"mac":    {"P3", "P4"},
		"ipod":   {"P3", "P4"},
	})
	cloud := BuildCloud(td, CloudOptions{Threshold: 0.5, MaxFontSize: 7, UsePivot: true})
	var apple *Entry
	for i := range cloud.Entries {
		if cloud.Entries[i].Tag == "apple" {
			apple = &cloud.Entries[i]
		}
	}
	if apple == nil {
		t.Fatal("apple missing from cloud")
	}
	if apple.Cliques != 2 {
		t.Errorf("apple belongs to %d cliques, want 2 (the Fig. 5 example)", apple.Cliques)
	}
	if apple.MaxCliqueOrder != 3 {
		t.Errorf("apple max clique order = %d, want 3", apple.MaxCliqueOrder)
	}
	if len(cloud.Cliques) != 2 {
		t.Errorf("cliques = %v", cloud.Cliques)
	}
	// Apple is the most frequent tag: largest font.
	for _, e := range cloud.Entries {
		if e.Tag != "apple" && e.FontSize > apple.FontSize {
			t.Errorf("%s (%d) outsizes apple (%d)", e.Tag, e.FontSize, apple.FontSize)
		}
	}
}

func TestBuildCloudMinFrequency(t *testing.T) {
	td := NewTagData(map[string][]string{
		"common": {"P1", "P2", "P3"},
		"rare":   {"P1"},
	})
	cloud := BuildCloud(td, CloudOptions{MinFrequency: 2, UsePivot: true})
	if len(cloud.Entries) != 1 || cloud.Entries[0].Tag != "common" {
		t.Errorf("entries = %+v", cloud.Entries)
	}
}

func TestBuildCloudBasicVsPivotAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pages := map[string][]string{}
	for i := 0; i < 20; i++ {
		tag := fmt.Sprintf("tag%02d", i)
		for p := 0; p < 1+rng.Intn(5); p++ {
			pages[tag] = append(pages[tag], fmt.Sprintf("P%d", rng.Intn(8)))
		}
	}
	td := NewTagData(pages)
	a := BuildCloud(td, CloudOptions{UsePivot: false})
	b := BuildCloud(td, CloudOptions{UsePivot: true})
	if !reflect.DeepEqual(a.Cliques, b.Cliques) {
		t.Error("basic and pivot clouds disagree on cliques")
	}
	if !reflect.DeepEqual(a.Entries, b.Entries) {
		t.Error("basic and pivot clouds disagree on entries")
	}
}

func TestCloudEntriesSorted(t *testing.T) {
	td := NewTagData(map[string][]string{
		"zeta": {"P1"}, "alpha": {"P2"}, "mid": {"P3"},
	})
	cloud := BuildCloud(td, CloudOptions{UsePivot: true})
	tags := make([]string, len(cloud.Entries))
	for i, e := range cloud.Entries {
		tags[i] = e.Tag
	}
	if !sort.StringsAreSorted(tags) {
		t.Errorf("entries not sorted: %v", tags)
	}
}
