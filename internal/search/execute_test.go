package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/smr"
)

// executeFixture builds a corpus with enough structure for pruning to bite:
// sensors spread over deployments, a few measures, and varied text.
func executeFixture(t testing.TB, sensors int) (*smr.Repository, *Engine) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	measures := []string{"temperature", "wind speed", "humidity", "snow height"}
	for d := 0; d < 10; d++ {
		title := fmt.Sprintf("Deployment:D-%02d", d)
		text := fmt.Sprintf("[[locatedIn::Fieldsite:F-%d]] deployment cluster", d%3)
		if _, err := repo.PutPage(title, "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sensors; i++ {
		m := measures[i%len(measures)]
		text := fmt.Sprintf(
			"A %s sensor at station %d.\n[[partOf::Deployment:D-%02d]]\n[[measures::%s]]\n[[samplingRate::%d]]\n[[Category:Sensors]]\n",
			m, i, i%10, m, 1+i%60)
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:S-%04d", i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo, NewEngine(repo)
}

// TestExecutePrunedMatchesUnpruned is the executor's core equivalence: for
// a spread of expressions, candidate pruning returns exactly the results
// (order, scores, matched pairs, facets, totals) of the score-then-filter
// baseline.
func TestExecutePrunedMatchesUnpruned(t *testing.T) {
	_, e := executeFixture(t, 120)
	exprs := []query.Expr{
		query.Property{Name: "measures", Op: query.OpEq, Value: "Temperature"},
		query.And{Children: []query.Expr{
			query.Keyword{Text: "sensor station"},
			query.Property{Name: "measures", Op: query.OpEq, Value: "wind speed"},
		}},
		query.And{Children: []query.Expr{
			query.Keyword{Text: "sensor", Any: true},
			query.Range{Name: "samplingRate", Min: "10", Max: "20"},
			query.Namespace{Name: "Sensor"},
		}},
		query.Or{Children: []query.Expr{
			query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"},
			query.Property{Name: "measures", Op: query.OpEq, Value: "snow height"},
		}},
		query.And{Children: []query.Expr{
			query.Category{Name: "sensors"},
			query.Not{Child: query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"}},
			query.Property{Name: "partof", Op: query.OpEq, Value: "Deployment:D-03"},
		}},
		query.And{Children: []query.Expr{
			query.TitlePrefix{Prefix: "Sensor:S-00"},
			query.Property{Name: "samplingrate", Op: query.OpLe, Value: "5"},
		}},
		query.HasProperty{Name: "locatedIn"},
	}
	for i, expr := range exprs {
		for _, sortBy := range []SortKey{SortRelevance, SortTitle, SortRank} {
			opts := ExecOptions{SortBy: sortBy, Facets: []string{"measures"}}
			pruned, err := e.Execute(expr, opts)
			if err != nil {
				t.Fatalf("expr %d pruned: %v", i, err)
			}
			opts.DisablePruning = true
			full, err := e.Execute(expr, opts)
			if err != nil {
				t.Fatalf("expr %d unpruned: %v", i, err)
			}
			if !reflect.DeepEqual(pruned, full) {
				t.Errorf("expr %d sort %s: pruned != unpruned\n  pruned %+v\n  full   %+v",
					i, sortBy, pruned, full)
			}
			if pruned.Matched == 0 {
				t.Errorf("expr %d matched nothing; fixture too weak", i)
			}
		}
	}
}

// TestExecuteMatchesLegacySearch pins the translation: Query →
// LegacyExpr + LegacyOptions carries every flat parameter onto Execute,
// and alpha overrides the query's sort and order.
func TestExecuteMatchesLegacySearch(t *testing.T) {
	_, e := executeFixture(t, 80)
	e.SetRanks(map[string]float64{"Sensor:S-0001": 0.3, "Sensor:S-0002": 0.2})
	alpha := 0.4
	queries := []struct {
		q    Query
		opts ExecOptions
	}{
		{Query{Keywords: "temperature sensor"}, ExecOptions{}},
		{Query{Keywords: "sensor", Mode: ModeAny, Limit: 7, Offset: 3, SortBy: SortTitle},
			ExecOptions{SortBy: SortTitle, Limit: 7, Offset: 3}},
		{Query{Filters: []PropertyFilter{{Property: "measures", Op: OpEquals, Value: "humidity"}}, SortBy: SortRank},
			ExecOptions{SortBy: SortRank}},
		{Query{Namespace: "Sensor", Category: "Sensors", Limit: 5, Order: OrderAsc, User: "bob"},
			ExecOptions{Limit: 5, Order: OrderAsc, User: "bob"}},
		{Query{Keywords: "sensor", Mode: ModeAny, SortBy: SortTitle, Order: OrderAsc, Limit: 6, Alpha: &alpha},
			ExecOptions{Limit: 6, Alpha: &alpha}},
	}
	for i, c := range queries {
		got, err := runLegacy(e, c.q, "measures")
		if err != nil {
			t.Fatal(err)
		}
		expr, err := LegacyExpr(c.q)
		if err != nil {
			t.Fatal(err)
		}
		c.opts.Facets = []string{"measures"}
		want, err := e.Execute(expr, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: legacy translation and hand-built options disagree", i)
		}
		if len(want.Results) == 0 {
			t.Errorf("query %d matched nothing; fixture too weak", i)
		}
	}
}

// TestExecuteCursorPagination checks the acceptance criterion: walking the
// matching set page by page through keyset cursors reproduces exactly the
// total ordering of one unpaginated request, for every sort key.
func TestExecuteCursorPagination(t *testing.T) {
	_, e := executeFixture(t, 90)
	ranks := map[string]float64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 90; i++ {
		ranks[fmt.Sprintf("Sensor:S-%04d", i)] = rng.Float64() / 10
	}
	e.SetRanks(ranks)
	expr := query.And{Children: []query.Expr{
		query.Keyword{Text: "sensor", Any: true},
		query.Namespace{Name: "Sensor"},
	}}
	for _, sortBy := range []SortKey{SortRelevance, SortTitle, SortRank} {
		for _, order := range []Order{OrderDefault, OrderAsc, OrderDesc} {
			all, err := e.Execute(expr, ExecOptions{SortBy: sortBy, Order: order})
			if err != nil {
				t.Fatal(err)
			}
			var walked []Result
			cursor := ""
			pages := 0
			for {
				page, err := e.Execute(expr, ExecOptions{SortBy: sortBy, Order: order, Limit: 7, Cursor: cursor})
				if err != nil {
					t.Fatalf("sort %s order %q page %d: %v", sortBy, order, pages, err)
				}
				walked = append(walked, page.Results...)
				pages++
				if page.NextCursor == "" {
					break
				}
				if pages > 30 {
					t.Fatal("cursor walk did not terminate")
				}
				cursor = page.NextCursor
			}
			if !reflect.DeepEqual(all.Results, walked) {
				t.Errorf("sort %s order %q: cursor walk diverges from unpaginated ordering (%d vs %d results)",
					sortBy, order, len(walked), len(all.Results))
			}
			if len(walked) == 0 {
				t.Errorf("sort %s order %q: empty walk", sortBy, order)
			}
		}
	}
}

func TestExecuteCursorRejectsMismatch(t *testing.T) {
	_, e := executeFixture(t, 20)
	expr := query.Namespace{Name: "Sensor"}
	first, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("no cursor issued")
	}
	// Different sort key.
	if _, err := e.Execute(expr, ExecOptions{SortBy: SortRank, Limit: 3, Cursor: first.NextCursor}); err == nil {
		t.Error("cursor accepted under a different sort")
	}
	// Different expression.
	other := query.Namespace{Name: "Deployment"}
	if _, err := e.Execute(other, ExecOptions{SortBy: SortTitle, Limit: 3, Cursor: first.NextCursor}); err == nil {
		t.Error("cursor accepted for a different query")
	}
	// Garbage.
	if _, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 3, Cursor: "not-a-cursor!"}); err == nil {
		t.Error("garbage cursor accepted")
	}
	// Cursor and offset together.
	if _, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 3, Offset: 2, Cursor: first.NextCursor}); err == nil {
		t.Error("cursor+offset accepted")
	}
}

// TestMetaIndexIncremental checks the structural index tracks edits: after
// changing a page's annotations, candidates reflect the new state exactly
// as a rebuilt engine would.
func TestMetaIndexIncremental(t *testing.T) {
	repo, e := executeFixture(t, 30)
	if _, err := repo.PutPage("Sensor:S-0003", "t",
		"[[partOf::Deployment:D-09]] [[measures::ozone]] [[Category:Sensors]] recalibrated sensor", ""); err != nil {
		t.Fatal(err)
	}
	repo.DeletePage("Sensor:S-0004")
	e.Update()
	fresh := NewEngine(repo)
	exprs := []query.Expr{
		query.Property{Name: "measures", Op: query.OpEq, Value: "ozone"},
		query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"},
		query.Property{Name: "partof", Op: query.OpEq, Value: "Deployment:D-09"},
		query.HasProperty{Name: "samplingRate"},
	}
	for i, expr := range exprs {
		got, err := e.Execute(expr, ExecOptions{SortBy: SortTitle})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Execute(expr, ExecOptions{SortBy: SortTitle})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("expr %d: incremental meta index diverges from rebuild", i)
		}
	}
	if got, _ := e.Execute(query.Property{Name: "measures", Op: query.OpEq, Value: "ozone"}, ExecOptions{}); len(got.Results) != 1 || got.Results[0].Title != "Sensor:S-0003" {
		t.Errorf("ozone candidates = %+v", got.Results)
	}
}

// TestExecuteFoldEquivalence pins the candidate-key canonicalization: a
// stored value that is EqualFold-equal but not ToLower-equal to the filter
// value (U+017F ſ folds to s) must be found by the pruned path exactly
// like the unpruned one, for equality and non-equality operators alike.
func TestExecuteFoldEquivalence(t *testing.T) {
	repo, e := executeFixture(t, 10)
	if _, err := repo.PutPage("Sensor:Fold-1", "t",
		"[[ſtatus::ſpecial]] [[Category:Senſors]] folded sensor", ""); err != nil {
		t.Fatal(err)
	}
	e.Update()
	exprs := []query.Expr{
		query.Property{Name: "status", Op: query.OpEq, Value: "special"},
		query.Property{Name: "ſtatus", Op: query.OpEq, Value: "ſpecial"},
		query.Property{Name: "status", Op: query.OpNe, Value: "zzz"},
		query.Category{Name: "sensors"},
		query.HasProperty{Name: "STATUS"},
	}
	for i, expr := range exprs {
		pruned, err := e.Execute(expr, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := e.Execute(expr, ExecOptions{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pruned.Results, full.Results) {
			t.Errorf("expr %d: pruned %v != unpruned %v", i, pruned.Results, full.Results)
		}
		found := false
		for _, r := range pruned.Results {
			if r.Title == "Sensor:Fold-1" {
				found = true
			}
		}
		if !found {
			t.Errorf("expr %d: fold-equal page not matched (results %v)", i, pruned.Results)
		}
	}
}

// TestCursorSurvivesSelectivityChurn pins the cursor signature to the
// deterministic normalized expression: writes that flip which conjunct is
// most selective (and hence the Reorder outcome) between pages must not
// invalidate an outstanding cursor.
func TestCursorSurvivesSelectivityChurn(t *testing.T) {
	repo, e := executeFixture(t, 40)
	expr := query.And{Children: []query.Expr{
		query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"},
		query.Category{Name: "Sensors"},
	}}
	first, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("no cursor issued")
	}
	// Make the category leaf far more selective than the measures leaf.
	for i := 0; i < 200; i++ {
		text := fmt.Sprintf("[[measures::temperature]] churn station %d", i)
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:Churn-%03d", i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	e.Update()
	next, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 3, Cursor: first.NextCursor})
	if err != nil {
		t.Fatalf("cursor rejected after selectivity churn: %v", err)
	}
	last := first.Results[len(first.Results)-1].Title
	for _, r := range next.Results {
		if r.Title <= last {
			t.Errorf("page 2 regressed before the cursor position: %s <= %s", r.Title, last)
		}
	}
}

// TestMatchedPairStableUnderReorder pins the display pair of duplicate
// same-property filters to the author's operand order (legacy last-wins),
// immune to selectivity reordering.
func TestMatchedPairStableUnderReorder(t *testing.T) {
	repo, e := executeFixture(t, 5)
	if _, err := repo.PutPage("Sensor:Dup-1", "t", "[[x::20]] [[x::5]] dup", ""); err != nil {
		t.Fatal(err)
	}
	e.Update()
	rs, err := legacySearch(e, Query{Filters: []PropertyFilter{
		{Property: "x", Op: OpGreatEq, Value: "10"}, // matches 20
		{Property: "x", Op: OpEquals, Value: "5"},   // matches 5; last filter wins the display pair
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Matched["x"] != "5" {
		t.Errorf("results = %+v, want matched x=5", rs)
	}
}

// TestExecuteTwoKeywordConjuncts pins the driver-leaf identity: with two
// keyword conjuncts of different selectivity, reordering must not install
// one leaf's driven score under the other's text — a page matching only
// the rarer word must NOT match, and scores must equal the unpruned path.
func TestExecuteTwoKeywordConjuncts(t *testing.T) {
	repo, e := executeFixture(t, 30)
	// "zebra" is rare (one page, which lacks "sensor"-ish common terms).
	if _, err := repo.PutPage("Sensor:Zebra-1", "t", "zebra calibration notes", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.PutPage("Sensor:Zebra-2", "t", "zebra station sensor rig", ""); err != nil {
		t.Fatal(err)
	}
	e.Update()
	expr := query.And{Children: []query.Expr{
		query.Keyword{Text: "station"}, // common
		query.Keyword{Text: "zebra"},   // rare: drives enumeration after reorder
	}}
	got, err := e.Execute(expr, ExecOptions{SortBy: SortTitle})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("driver mismatch: pruned %+v != unpruned %+v", got.Results, want.Results)
	}
	if len(got.Results) != 1 || got.Results[0].Title != "Sensor:Zebra-2" {
		t.Fatalf("results = %+v, want only Sensor:Zebra-2", got.Results)
	}
}

// TestExecuteOrKeywordUnion checks an Or of keywords (and keyword ∨
// structural mixes) returns exactly the unpruned results — driven from the
// posting union, not a corpus scan.
func TestExecuteOrKeywordUnion(t *testing.T) {
	_, e := executeFixture(t, 60)
	exprs := []query.Expr{
		query.Or{Children: []query.Expr{
			query.Keyword{Text: "humidity"},
			query.Keyword{Text: "snow", Any: true},
		}},
		query.Or{Children: []query.Expr{
			query.Keyword{Text: "humidity"},
			query.Property{Name: "measures", Op: query.OpEq, Value: "wind speed"},
		}},
	}
	for i, expr := range exprs {
		got, err := e.Execute(expr, ExecOptions{SortBy: SortTitle})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("expr %d: or-union diverges from unpruned", i)
		}
		if got.Matched == 0 {
			t.Errorf("expr %d matched nothing", i)
		}
	}
}

// TestDocScoreMatchesSearch checks the per-document scorer the pruned
// executor uses against the reference scorer Index.Search: every hit
// scores identically, and a phrase the document lacks does not match.
func TestDocScoreMatchesSearch(t *testing.T) {
	_, e := executeFixture(t, 50)
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	for _, q := range []string{"temperature sensor", `"wind speed"`, "station"} {
		for _, mode := range []Mode{ModeAll, ModeAny} {
			total := 0
			for _, sh := range shards {
				ix := sh.index
				dm := ix.CompileDocMatcher(q, mode)
				hits := ix.Search(q, mode)
				total += len(hits)
				for _, h := range hits {
					score, ok := dm.Score(h.ID)
					if !ok {
						t.Fatalf("Score(%s, %q) reports no match", h.ID, q)
					}
					if score != h.Score {
						t.Errorf("Score(%s, %q) = %v, Search = %v", h.ID, q, score, h.Score)
					}
				}
				if _, ok := ix.CompileDocMatcher(`"wind speed"`, ModeAll).Score("Deployment:D-00"); ok {
					t.Error("Score matched a phrase the document lacks")
				}
			}
			if total == 0 {
				t.Fatalf("no hits for %q", q)
			}
		}
	}
}
