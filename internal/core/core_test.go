package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/wiki"
)

func fixture(t *testing.T) (*smr.Repository, *Manager) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	puts := []struct{ title, text string }{
		{"Fieldsite:Davos", "[[canton::GR]] [[latitude::46.80]] [[longitude::9.83]]"},
		{"Fieldsite:Zermatt", "[[canton::VS]] [[latitude::46.02]] [[longitude::7.75]]"},
		{"Deployment:D1", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]]"},
		{"Deployment:D2", "[[locatedIn::Fieldsite:Zermatt]] [[operatedBy::SLF]]"},
		{"Sensor:S1", "[[partOf::Deployment:D1]] [[measures::wind speed]] [[samplingRate::10]] [[latitude::46.81]] [[longitude::9.84]] anemometer"},
		{"Sensor:S2", "[[partOf::Deployment:D1]] [[measures::temperature]] [[samplingRate::60]] [[latitude::46.79]] [[longitude::9.82]]"},
		{"Sensor:S3", "[[partOf::Deployment:D2]] [[measures::wind speed]] [[samplingRate::600]] [[latitude::46.03]] [[longitude::7.76]]"},
	}
	for _, p := range puts {
		if _, err := repo.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	engine := search.NewEngine(repo)
	engine.SetRanks(map[string]float64{"Sensor:S1": 0.3, "Sensor:S2": 0.2, "Sensor:S3": 0.1})
	return repo, NewManager(repo, engine)
}

func TestSPARQLOnlyQuery(t *testing.T) {
	_, m := fixture(t)
	res, err := m.Execute(CombinedQuery{
		SPARQL: `SELECT ?page ?rate WHERE {
			?page <smr://prop/measures> "wind speed" .
			?page <smr://prop/samplingrate> ?rate .
		}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 2 {
		t.Fatalf("titles = %v", res.Titles)
	}
	// Ordered by installed scores: S1 before S3.
	if res.Titles[0] != "Sensor:S1" || res.Titles[1] != "Sensor:S3" {
		t.Errorf("order = %v", res.Titles)
	}
	// The extra SPARQL variable becomes a column.
	if len(res.Columns) != 2 || res.Columns[1].Name != "sparql.rate" {
		t.Errorf("columns = %+v", res.Columns)
	}
	if !res.Columns[1].Numeric {
		t.Error("rate column should be numeric")
	}
	if res.Rows[0][1] != "10" {
		t.Errorf("S1 rate = %q", res.Rows[0][1])
	}
}

func TestSQLOnlyQuery(t *testing.T) {
	_, m := fixture(t)
	res, err := m.Execute(CombinedQuery{
		SQL: "SELECT page, value FROM annotations WHERE property = 'measures'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 3 {
		t.Fatalf("titles = %v", res.Titles)
	}
	if res.Columns[1].Name != "sql.value" || res.Columns[1].Numeric {
		t.Errorf("columns = %+v", res.Columns)
	}
}

func TestCombinedSPARQLPlusSQLPlusKeywords(t *testing.T) {
	// The paper's full pipeline: SPARQL selects wind sensors, SQL brings
	// sampling rates, keywords require "anemometer" prose.
	_, m := fixture(t)
	res, err := m.Execute(CombinedQuery{
		SPARQL:   `SELECT ?page WHERE { ?page <smr://prop/measures> "wind speed" }`,
		SQL:      "SELECT page, numeric FROM annotations WHERE property = 'samplingrate'",
		Keywords: "anemometer",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 1 || res.Titles[0] != "Sensor:S1" {
		t.Fatalf("titles = %v", res.Titles)
	}
	// Columns from all three parts.
	names := map[string]bool{}
	for _, c := range res.Columns {
		names[c.Name] = true
	}
	for _, want := range []string{"page", "sql.numeric", "relevance"} {
		if !names[want] {
			t.Errorf("column %s missing from %v", want, res.Columns)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	_, m := fixture(t)
	if _, err := m.Execute(CombinedQuery{}); err == nil {
		t.Error("empty combined query accepted")
	}
	if _, err := m.Execute(CombinedQuery{SPARQL: "not sparql"}); err == nil {
		t.Error("bad SPARQL accepted")
	}
	if _, err := m.Execute(CombinedQuery{SQL: "not sql"}); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := m.Execute(CombinedQuery{
		SPARQL: `SELECT ?other WHERE { ?other <smr://prop/measures> ?m }`,
	}); err == nil {
		t.Error("SPARQL without the page variable accepted")
	}
}

func TestLimitAndACL(t *testing.T) {
	repo, m := fixture(t)
	res, err := m.Execute(CombinedQuery{
		SQL:   "SELECT page FROM annotations WHERE property = 'measures'",
		Limit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 2 {
		t.Errorf("limit ignored: %v", res.Titles)
	}
	repo.ACL.SetAnonymousAccess(false)
	repo.ACL.Grant("alice", wiki.NamespaceSensor)
	repo.ACL.DenyPage("alice", "Sensor:S3")
	res, err = m.Execute(CombinedQuery{
		SQL:  "SELECT page FROM annotations WHERE property = 'measures'",
		User: "alice",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 2 {
		t.Errorf("ACL-filtered titles = %v", res.Titles)
	}
	for _, title := range res.Titles {
		if title == "Sensor:S3" {
			t.Error("denied page leaked")
		}
	}
}

func TestHintMap(t *testing.T) {
	_, m := fixture(t)
	// All sensors carry coordinates → map hint.
	res, err := m.Execute(CombinedQuery{
		SQL: "SELECT title FROM pages WHERE namespace = 'Sensor'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hint != HintMap {
		t.Errorf("hint = %s, want map", res.Hint)
	}
}

func TestHintGraph(t *testing.T) {
	_, m := fixture(t)
	// Deployments and their fieldsites interlink densely (every deployment
	// links its site) and deployments carry no coordinates.
	res, err := m.Execute(CombinedQuery{
		SQL: "SELECT title FROM pages WHERE namespace = 'Deployment' OR namespace = 'Fieldsite'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hint != HintGraph && res.Hint != HintMap {
		// Fieldsites carry coordinates; half the set positioned → may tip
		// to map. Accept either but require a non-table hint.
		t.Errorf("hint = %s, want graph or map", res.Hint)
	}
}

func TestHintChartAndTable(t *testing.T) {
	repo, m := fixture(t)
	// Add unpositioned sensors with a low-cardinality categorical value so
	// the chart heuristic has something to group.
	for _, p := range []struct{ title, text string }{
		{"Sensor:S4", "[[measures::temperature]]"},
		{"Sensor:S5", "[[measures::temperature]]"},
		{"Sensor:S6", "[[measures::wind speed]]"},
		{"Sensor:S7", "[[measures::wind speed]]"},
	} {
		if _, err := repo.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Execute(CombinedQuery{
		SQL: "SELECT page, value FROM annotations WHERE property = 'measures' AND page LIKE 'Sensor:S_' AND page > 'Sensor:S3'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hint != HintChart {
		t.Errorf("hint = %s, want chart (rows=%v)", res.Hint, res.Rows)
	}
	// A single row falls back to table.
	res, err = m.Execute(CombinedQuery{
		SQL: "SELECT page FROM annotations WHERE property = 'measures' AND page = 'Sensor:S4'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hint != HintTable {
		t.Errorf("single-row hint = %s, want table", res.Hint)
	}
}

func TestKeywordOnlyQuery(t *testing.T) {
	_, m := fixture(t)
	res, err := m.Execute(CombinedQuery{Keywords: "anemometer"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Titles) != 1 || res.Titles[0] != "Sensor:S1" {
		t.Errorf("titles = %v", res.Titles)
	}
	if !strings.HasPrefix(res.Rows[0][1], "0.") {
		t.Errorf("relevance cell = %q", res.Rows[0][1])
	}
}

// referenceResultLinks is the result-to-result link count chooseHint used
// to read from the whole-corpus LinkGraph: the distinct successors of each
// result title's node that are result titles too.
func referenceResultLinks(repo *smr.Repository, titles []string) int {
	inSet := map[string]bool{}
	for _, t := range titles {
		inSet[t] = true
	}
	g := repo.LinkGraph()
	successors := map[int]map[int]bool{}
	for _, e := range g.Edges() {
		if successors[e.From] == nil {
			successors[e.From] = map[int]bool{}
		}
		successors[e.From][e.To] = true
	}
	links := 0
	for _, t := range titles {
		if idx, ok := g.Index(t); ok {
			for succ := range successors[idx] {
				if inSet[g.ID(succ)] {
					links++
				}
			}
		}
	}
	return links
}

// TestResultLinksMatchesLinkGraph: on seeded corpora (page and semantic
// links to the same target, repeats, self-links, red links) and seeded
// result sets (duplicates, red-link titles, non-canonical spellings), the
// count read from the result pages equals the LinkGraph reference, and so
// does the graph-or-table hint of an unpositioned result.
func TestResultLinksMatchesLinkGraph(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo, err := smr.New()
		if err != nil {
			t.Fatal(err)
		}
		var pool []string
		for i := 0; i < 6+rng.Intn(10); i++ {
			pool = append(pool, fmt.Sprintf("%s:P%d", []string{"Sensor", "Deployment", "Fieldsite"}[rng.Intn(3)], i))
		}
		for _, title := range pool[:len(pool)-2] { // the last two stay red links
			var refs []string
			for k := rng.Intn(6); k > 0; k-- {
				target := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					refs = append(refs, "[["+target+"]]")
				} else {
					refs = append(refs, "[[partOf::"+target+"]]")
				}
			}
			if _, err := repo.PutPage(title, "t", strings.Join(refs, " ")+" prose", ""); err != nil {
				t.Fatal(err)
			}
		}
		m := NewManager(repo, search.NewEngine(repo))
		for trial := 0; trial < 10; trial++ {
			var titles []string
			for k := 1 + rng.Intn(len(pool)); k > 0; k-- {
				title := pool[rng.Intn(len(pool))]
				if rng.Intn(10) == 0 { // parses to the same page, but is not its node id
					title = strings.Replace(title, ":", ": ", 1)
				}
				titles = append(titles, title)
			}
			want := referenceResultLinks(repo, titles)
			if got := resultLinks(repo, titles); got != want {
				t.Fatalf("seed %d trial %d: resultLinks(%v) = %d, want %d", seed, trial, titles, got, want)
			}
			res := &Result{Columns: []Column{{Name: "page"}}, Titles: titles}
			for _, title := range titles {
				res.Rows = append(res.Rows, []string{title})
			}
			wantHint := HintTable
			if want >= len(titles) {
				wantHint = HintGraph
			}
			if got := m.chooseHint(res); got != wantHint {
				t.Fatalf("seed %d trial %d: hint = %s, want %s", seed, trial, got, wantHint)
			}
		}
	}
}
