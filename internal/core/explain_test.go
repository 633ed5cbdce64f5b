package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/smr"
)

// probeFixture builds a corpus where a common keyword co-exists with a
// selective SQL predicate, so the cost-based driving-side choice has
// something to decide: 40 sensor pages all containing "station", sampling
// rates cycling 0–3, and two pages carrying the rare word "anemometer".
func probeFixture(t *testing.T) (*smr.Repository, *Manager) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		extra := ""
		if i < 2 {
			extra = " anemometer"
		}
		text := fmt.Sprintf("station sensor %d%s [[measures::temperature]] [[samplingRate::%d]]", i, extra, i%4)
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:P-%02d", i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(repo, search.NewEngine(repo))
	return repo, m
}

func findColumn(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, c := range res.Columns {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("no column %q in %+v", name, res.Columns)
	return -1
}

// TestKeywordProbeMatchesDriving pins the driving-side choice and its
// equivalence: when the SQL part's candidate set undercuts the keyword
// estimate, the keyword part degrades to a per-title probe — and the joined
// titles and relevance cells are exactly what the full-search intersection
// would produce.
func TestKeywordProbeMatchesDriving(t *testing.T) {
	_, m := probeFixture(t)
	q := CombinedQuery{
		SQL:      "SELECT page FROM annotations WHERE property = 'samplingrate' AND value = '1'",
		Keywords: "station",
		Explain:  true,
	}
	res, err := m.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Explain set but Plan nil")
	}
	rendered := res.Plan.String()
	if !strings.Contains(rendered, "KeywordPart(probe:") {
		t.Fatalf("keyword part should probe, plan:\n%s", rendered)
	}

	// Reference: the full keyword search's relevance per title.
	full, err := m.engine.Execute(query.Keyword{Text: q.Keywords}, search.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := map[string]float64{}
	for _, h := range full.Results {
		rel[h.Title] = h.Relevance
	}
	if len(res.Titles) != 10 {
		t.Fatalf("titles = %v", res.Titles)
	}
	ci := findColumn(t, res, "relevance")
	for ri, title := range res.Titles {
		want, ok := rel[title]
		if !ok {
			t.Fatalf("joined title %q not in full search", title)
		}
		if got := res.Rows[ri][ci]; got != fmt.Sprintf("%.4f", want) {
			t.Errorf("relevance[%s] = %q, full search %.4f", title, got, want)
		}
	}

	// The rare keyword against the same SQL part drives instead.
	q.Keywords = "anemometer"
	res, err = m.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.String(), "KeywordPart(drives:") {
		t.Fatalf("rare keyword should drive, plan:\n%s", res.Plan.String())
	}
}

// TestCombinedExplainPlan pins the combined plan's shape: a CombinedJoin
// root whose Act is the joined row count, one node per part, and the SQL
// part embedding the relational planner's subtree.
func TestCombinedExplainPlan(t *testing.T) {
	_, m := fixture(t)
	q := CombinedQuery{
		SPARQL:   `SELECT ?page WHERE { ?page <smr://prop/measures> "wind speed" }`,
		SQL:      "SELECT page, numeric FROM annotations WHERE property = 'samplingrate'",
		Keywords: "anemometer",
		Explain:  true,
	}
	res, err := m.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Explain set but Plan nil")
	}
	if res.Plan.Op != "CombinedJoin" {
		t.Errorf("root op = %q", res.Plan.Op)
	}
	if res.Plan.Act != len(res.Titles) {
		t.Errorf("root act = %d, want %d", res.Plan.Act, len(res.Titles))
	}
	rendered := res.Plan.String()
	for _, want := range []string{"SPARQLPart", "SQLPart", "KeywordPart", "IndexScan"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan lacks %s:\n%s", want, rendered)
		}
	}

	// Explain is pure observation: the same query without it returns the
	// same join and no plan.
	q.Explain = false
	plain, err := m.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Plan != nil {
		t.Error("Plan set without Explain")
	}
	if len(plain.Titles) != len(res.Titles) {
		t.Errorf("explain changed the join: %v vs %v", plain.Titles, res.Titles)
	}
}
