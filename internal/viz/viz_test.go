package viz

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/relational"
	"repro/internal/tagging"
)

// validXML parses the SVG to catch unbalanced tags or unescaped content.
func validXML(t *testing.T, s string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(s))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid XML: %v\n%s", err, s)
		}
	}
}

func TestBarChart(t *testing.T) {
	svg := BarChart("Sensors per site", []Datum{
		{Label: "Davos", Value: 4},
		{Label: "Wannengrat & <Ridge>", Value: 7},
	}, 640, 360)
	validXML(t, svg)
	if !strings.Contains(svg, "Wannengrat &amp; &lt;Ridg") {
		t.Error("label not escaped/rendered")
	}
	if strings.Count(svg, "<rect") < 2 {
		t.Error("bars missing")
	}
	// Empty data still renders a valid document.
	validXML(t, BarChart("empty", nil, 0, 0))
}

func TestPieChart(t *testing.T) {
	svg := PieChart("Share", []Datum{
		{Label: "SLF", Value: 3},
		{Label: "EPFL", Value: 1},
	}, 360)
	validXML(t, svg)
	if strings.Count(svg, "<path") != 2 {
		t.Errorf("slices = %d, want 2", strings.Count(svg, "<path"))
	}
	if !strings.Contains(svg, "75.0%") {
		t.Error("percentage tooltip missing")
	}
	// Single-datum pie is a full circle.
	one := PieChart("One", []Datum{{Label: "only", Value: 5}}, 360)
	validXML(t, one)
	if !strings.Contains(one, "<circle") {
		t.Error("single-slice pie should render a circle")
	}
	// Non-positive values dropped; empty result message.
	validXML(t, PieChart("none", []Datum{{Label: "zero", Value: 0}}, 0))
}

func TestSortDataAndCounts(t *testing.T) {
	data := DataFromCounts(map[string]int{"b": 2, "a": 2, "c": 9})
	if data[0].Label != "c" || data[1].Label != "a" || data[2].Label != "b" {
		t.Errorf("sorted data = %v", data)
	}
}

func testGraph() *graph.Directed {
	g := graph.NewDirected()
	g.AddEdge("Deployment:A", "Fieldsite:D", graph.SemanticLink)
	g.AddEdge("Deployment:A", "Fieldsite:D", graph.PageLink)
	g.AddEdge("Sensor:S", "Deployment:A", graph.SemanticLink)
	g.AddNode("Orphan")
	return g
}

func TestDOT(t *testing.T) {
	dot := DOT(testGraph(), "links")
	if !strings.HasPrefix(dot, `digraph "links" {`) {
		t.Errorf("header = %q", dot[:30])
	}
	if !strings.Contains(dot, `"Deployment:A" -> "Fieldsite:D" [style=dashed`) {
		t.Error("semantic edge styling missing")
	}
	if !strings.Contains(dot, `"Deployment:A" -> "Fieldsite:D";`) {
		t.Error("page edge missing")
	}
	if !strings.Contains(dot, `"Orphan";`) {
		t.Error("isolated node missing")
	}
	// Deterministic.
	if dot != DOT(testGraph(), "links") {
		t.Error("DOT output not deterministic")
	}
}

func TestForceLayout(t *testing.T) {
	g := testGraph()
	l1 := ForceLayout(g, 50)
	l2 := ForceLayout(g, 50)
	if len(l1) != g.NumNodes() {
		t.Fatalf("layout has %d nodes", len(l1))
	}
	for id, p := range l1 {
		if p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1 {
			t.Errorf("node %s outside unit square: %v", id, p)
		}
		if l2[id] != p {
			t.Error("layout not deterministic")
		}
	}
	// Connected nodes should end up nearer than the two ends of the chain.
	d := func(a, b string) float64 {
		dx, dy := l1[a][0]-l1[b][0], l1[a][1]-l1[b][1]
		return dx*dx + dy*dy
	}
	if d("Sensor:S", "Deployment:A") >= d("Sensor:S", "Fieldsite:D") {
		t.Log("warning: layout did not separate chain ends; acceptable but suspicious")
	}
	if len(ForceLayout(graph.NewDirected(), 10)) != 0 {
		t.Error("empty graph layout should be empty")
	}
}

func TestGraphSVG(t *testing.T) {
	svg := GraphSVG(testGraph(), 400, 300)
	validXML(t, svg)
	if strings.Count(svg, "<circle") != 4 {
		t.Errorf("nodes = %d, want 4", strings.Count(svg, "<circle"))
	}
	if strings.Count(svg, "<line") != 3 {
		t.Errorf("edges = %d, want 3", strings.Count(svg, "<line"))
	}
}

func TestHyperbolicLayout(t *testing.T) {
	g := testGraph()
	nodes := HyperbolicLayout(g, "Deployment:A")
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	byID := map[string]HyperNode{}
	for _, n := range nodes {
		byID[n.ID] = n
		if n.X*n.X+n.Y*n.Y > 1.0001 {
			t.Errorf("node %s outside the unit disk", n.ID)
		}
	}
	if byID["Deployment:A"].Depth != 0 || byID["Deployment:A"].X != 0 {
		t.Errorf("focus not centred: %+v", byID["Deployment:A"])
	}
	if byID["Fieldsite:D"].Depth != 1 || byID["Sensor:S"].Depth != 1 {
		t.Error("neighbours not at depth 1")
	}
	if byID["Orphan"].Depth != -1 {
		t.Error("unreachable node depth should be -1")
	}
	// Unknown focus falls back deterministically.
	if got := HyperbolicLayout(g, "NoSuchPage"); len(got) != 4 {
		t.Errorf("fallback layout nodes = %d", len(got))
	}
	if HyperbolicLayout(graph.NewDirected(), "x") != nil {
		t.Error("empty graph should lay out to nil")
	}
}

func TestHypergraphSVG(t *testing.T) {
	svg := HypergraphSVG(testGraph(), "Deployment:A", 400)
	validXML(t, svg)
	// Disk + 4 nodes.
	if strings.Count(svg, "<circle") != 5 {
		t.Errorf("circles = %d, want 5", strings.Count(svg, "<circle"))
	}
}

func TestMapSVG(t *testing.T) {
	clusters := geo.ClusterMarkers([]geo.Marker{
		{ID: "Sensor:A", At: geo.Point{Lat: 46.812, Lon: 9.812}, Match: 1},
		{ID: "Sensor:B", At: geo.Point{Lat: 46.818, Lon: 9.818}, Match: 0.4},
		{ID: "Sensor:C", At: geo.Point{Lat: 47.44, Lon: 8.55}, Match: 0.1},
	}, 0.1)
	svg := MapSVG(clusters, 600, 400)
	validXML(t, svg)
	if !strings.Contains(svg, "2 result(s)") {
		t.Error("cluster tooltip missing")
	}
	if !strings.Contains(svg, "match degree:") {
		t.Error("legend missing")
	}
	validXML(t, MapSVG(nil, 0, 0))
}

func TestMatchColorRamp(t *testing.T) {
	low, high := matchColor(0), matchColor(1)
	if low == high {
		t.Error("match colours do not vary")
	}
	if matchColor(-5) != low || matchColor(5) != high {
		t.Error("match colour not clamped")
	}
}

func TestHTMLTable(t *testing.T) {
	html := HTMLTable([]string{"title", "value"}, [][]string{
		{"Sensor:X", "<script>alert(1)</script>"},
	})
	if !strings.Contains(html, "&lt;script&gt;") {
		t.Error("cell content not escaped")
	}
	if !strings.Contains(html, "<th>title</th>") {
		t.Error("header missing")
	}
}

func TestResultSetTable(t *testing.T) {
	db := relational.NewDB()
	err := db.CreateTable("t", []relational.Column{{Name: "a", Type: relational.TypeInt}, {Name: "b", Type: relational.TypeText}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", relational.Row{relational.Int(1), relational.Text("x")}); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	html := ResultSetTable(rs)
	if !strings.Contains(html, "<td>1</td>") || !strings.Contains(html, "<td>x</td>") {
		t.Errorf("table = %s", html)
	}
}

func appleCloud() *tagging.Cloud {
	td := tagging.NewTagData(map[string][]string{
		"apple":  {"P1", "P2", "P3", "P4"},
		"pear":   {"P1", "P2"},
		"banana": {"P1", "P2"},
		"mac":    {"P3", "P4"},
		"ipod":   {"P3", "P4"},
	})
	return tagging.BuildCloud(td, tagging.CloudOptions{UsePivot: true})
}

func TestTagCloudHTML(t *testing.T) {
	html := TagCloudHTML(appleCloud())
	if strings.Count(html, `<span class="tag"`) != 5 {
		t.Errorf("tags = %d, want 5", strings.Count(html, `<span class="tag"`))
	}
	if !strings.Contains(html, "font-size:") {
		t.Error("font sizing missing")
	}
	// Apple is in two cliques → underlined.
	if !strings.Contains(html, "text-decoration:underline") {
		t.Error("multi-clique marker missing")
	}
}

func TestTagGraphSVG(t *testing.T) {
	svg := TagGraphSVG(appleCloud(), 520)
	validXML(t, svg)
	if strings.Count(svg, "<circle") != 5 {
		t.Errorf("tag nodes = %d, want 5", strings.Count(svg, "<circle"))
	}
	// Two cliques → at least two distinct edge colours among lines.
	if !strings.Contains(svg, Palette[0]) || !strings.Contains(svg, Palette[1]) {
		t.Error("clique colours missing")
	}
	validXML(t, TagGraphSVG(&tagging.Cloud{}, 0))
}
