package search

import (
	"reflect"
	"testing"

	"repro/internal/query"
)

// TestFilterOnlyEvalSkipEquivalence pins the Eval-skip materialization: a
// filter-only (keyword-free, exactly index-derivable) query with NO facets
// requested now takes the exact-set fast path, and its results — order,
// ranks, matched display pairs, totals, cursors — are identical to the
// streaming baseline that evaluates every candidate.
func TestFilterOnlyEvalSkipEquivalence(t *testing.T) {
	repo, e := executeFixture(t, 150)
	e.SetRanks(map[string]float64{"Sensor:S-0001": 0.4, "Sensor:S-0007": 0.2})
	exprs := []struct {
		expr      query.Expr
		wantPairs bool // positive property/range leaves ⇒ matched display pairs
	}{
		{query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"}, true},
		{query.And{Children: []query.Expr{
			query.Namespace{Name: "Sensor"},
			query.Range{Name: "samplingRate", Min: "5", Max: "30"},
		}}, true},
		{query.Not{Child: query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"}}, false},
		{query.All{}, false},
	}
	for i, tc := range exprs {
		expr := tc.expr
		for _, sortBy := range []SortKey{SortRelevance, SortTitle, SortRank} {
			for _, limit := range []int{0, 7} {
				opts := ExecOptions{SortBy: sortBy, Limit: limit}
				fast, err := e.Execute(expr, opts)
				if err != nil {
					t.Fatalf("expr %d fast: %v", i, err)
				}
				opts.noFacetIndex = true
				slow, err := e.Execute(expr, opts)
				if err != nil {
					t.Fatalf("expr %d baseline: %v", i, err)
				}
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("expr %d sort %s limit %d: eval-skip != baseline\n  fast %+v\n  slow %+v",
						i, sortBy, limit, fast, slow)
				}
				if fast.Matched == 0 {
					t.Errorf("expr %d matched nothing; fixture too weak", i)
				}
				// Paginated fast-path pages still carry matched pairs.
				if tc.wantPairs && limit > 0 && len(fast.Results) > 0 && len(fast.Results[0].Matched) == 0 {
					t.Errorf("expr %d: fast path dropped matched display pairs", i)
				}
			}
		}
	}

	// Cursors minted by the fast path resume correctly on the next page.
	expr := query.Namespace{Name: "Sensor"}
	first, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("fast path minted no cursor")
	}
	second, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5, Cursor: first.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	offset, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5, Offset: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Results, offset.Results) {
		t.Fatalf("cursor page != offset page\n  cursor %+v\n  offset %+v", second.Results, offset.Results)
	}

	// The fast path still honours the ACL.
	repo.ACL.DenyPage("intruder", "Sensor:S-0000")
	restricted, err := e.Execute(query.TitlePrefix{Prefix: "Sensor:S-000"},
		ExecOptions{SortBy: SortTitle, User: "intruder"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range restricted.Results {
		if r.Title == "Sensor:S-0000" {
			t.Fatal("eval-skip path leaked an ACL-denied page")
		}
	}
}

// BenchmarkFilterOnlyMaterialize measures result materialization for a
// filter-only query page — the Eval-skip fast path against the
// evaluate-every-candidate baseline.
func BenchmarkFilterOnlyMaterialize(b *testing.B) {
	_, e := executeFixture(b, 2000)
	expr := query.And{Children: []query.Expr{
		query.Namespace{Name: "Sensor"},
		query.Not{Child: query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"}},
	}}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"evalskip", false}, {"baseline", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := ExecOptions{SortBy: SortTitle, Limit: 20, noFacetIndex: mode.disable}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.Execute(expr, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Matched == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}
