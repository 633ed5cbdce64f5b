package search

import (
	"testing"

	"repro/internal/query"
)

// TestExecuteExplainPlan pins the shape of the search plan tree: a Search
// root carrying the index estimate, whose Act is the matched total, and
// one strategy leaf naming the enumeration rung that actually ran.
func TestExecuteExplainPlan(t *testing.T) {
	_, e := executeFixture(t, 120)

	cases := []struct {
		name     string
		expr     query.Expr
		strategy string
	}{
		{"structural", query.And{Children: []query.Expr{
			query.Category{Name: "sensors"},
			query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"},
		}}, "ExactSet"},
		{"keyword driver", query.And{Children: []query.Expr{
			query.Keyword{Text: "snow"},
			query.Range{Name: "samplingRate", Min: "10", Max: "50"},
		}}, "KeywordDriver"},
		{"corpus scan", query.Not{Child: query.Keyword{Text: "snow"}}, "CorpusScan"},
	}
	for _, tc := range cases {
		res, err := e.Execute(tc.expr, ExecOptions{Explain: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Plan == nil {
			t.Fatalf("%s: Explain set but Plan nil", tc.name)
		}
		if res.Plan.Op != "Search" {
			t.Errorf("%s: root op = %q, want Search", tc.name, res.Plan.Op)
		}
		if res.Plan.Act != res.Matched {
			t.Errorf("%s: root act = %d, want matched %d", tc.name, res.Plan.Act, res.Matched)
		}
		if res.Plan.Est < 0 {
			t.Errorf("%s: root estimate missing", tc.name)
		}
		if len(res.Plan.Children) != 1 {
			t.Fatalf("%s: root has %d children, want one strategy leaf:\n%s", tc.name, len(res.Plan.Children), res.Plan)
		}
		if strat := res.Plan.Children[0]; strat.Op != tc.strategy || len(strat.Children) != 0 {
			t.Errorf("%s: strategy node %q with %d children, want leaf %s", tc.name, strat.Op, len(strat.Children), tc.strategy)
		}

		// Explain must be pure observation: same results with it off.
		plain, err := e.Execute(tc.expr, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Matched != res.Matched || len(plain.Results) != len(res.Results) {
			t.Errorf("%s: explain changed results: %d/%d vs %d/%d",
				tc.name, plain.Matched, len(plain.Results), res.Matched, len(res.Results))
		}
	}
}

// TestEstimateMatches checks the estimate is index arithmetic in the right
// ballpark: bounded by the corpus, and smaller for a selective conjunction
// than for the whole corpus.
func TestEstimateMatches(t *testing.T) {
	repo, e := executeFixture(t, 120)
	n := repo.Wiki.Len()
	if got := e.EstimateMatches(query.All{}); got != n {
		t.Errorf("All estimate = %d, want corpus %d", got, n)
	}
	sel := e.EstimateMatches(query.And{Children: []query.Expr{
		query.Category{Name: "sensors"},
		query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"},
	}})
	if sel <= 0 || sel >= n {
		t.Errorf("selective estimate = %d, want in (0, %d)", sel, n)
	}
	if got := e.EstimateMatches(nil); got != n {
		t.Errorf("nil expr estimate = %d, want corpus %d", got, n)
	}
}

// TestCompileScorerMatchesSearch pins the combined-layer probe invariant:
// for every hit a full keyword Search reports, the compiled scorer returns
// the identical relevance, and it rejects titles the search did not match.
func TestCompileScorerMatchesSearch(t *testing.T) {
	_, e := executeFixture(t, 120)
	for _, mode := range []Mode{ModeAll, ModeAny} {
		kw := "temperature sensor"
		rs, err := legacySearch(e, Query{Keywords: kw, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatal("fixture matched nothing")
		}
		score := e.CompileScorer(kw, mode)
		for _, r := range rs {
			got, ok := score(r.Title)
			if !ok {
				t.Fatalf("mode %v: scorer rejected search hit %q", mode, r.Title)
			}
			if got != r.Relevance {
				t.Fatalf("mode %v: score(%q) = %v, search relevance %v", mode, r.Title, got, r.Relevance)
			}
		}
		if _, ok := score("Deployment:D-00"); ok {
			t.Errorf("mode %v: scorer accepted non-matching title", mode)
		}
		if _, ok := score("No:Such-Page"); ok {
			t.Errorf("mode %v: scorer accepted unknown title", mode)
		}
	}
}
