package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/smr"
)

// aclUser is the fixture principal some pages are denied to, so the
// executor's per-title ACL path runs alongside the read-everything one.
const aclUser = "limited"

// randomFixture builds a randomized corpus (puts, overwrites and deletes,
// so freed index slots and retracted postings are in play) and returns the
// repository plus a rank vector to install. Every seventh page is denied
// to aclUser.
func randomFixture(t *testing.T, rng *rand.Rand, pages int) (*smr.Repository, map[string]float64) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	ranks := make(map[string]float64)
	for i := 0; i < pages; i++ {
		title := fmt.Sprintf("Sensor:R%03d", i)
		if _, err := repo.PutPage(title, "t", randomPageText(rng), ""); err != nil {
			t.Fatal(err)
		}
		ranks[title] = rng.Float64()
		if i%7 == 0 {
			repo.ACL.DenyPage(aclUser, title)
		}
	}
	for i := 0; i < pages/4; i++ {
		title := fmt.Sprintf("Sensor:R%03d", rng.Intn(pages))
		if rng.Intn(3) == 0 {
			repo.DeletePage(title)
		} else if _, err := repo.PutPage(title, "t", randomPageText(rng), ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo, ranks
}

// execCases is the query-shape battery the reference suite runs:
// keyword-driven (all/any/phrase), filter-pruned, exact-set/facet,
// or-union, alpha-fused, negated, offset/limit, count-only and
// ACL-filtered paths.
func execCases() []struct {
	name string
	expr query.Expr
	opts ExecOptions
} {
	alpha := 0.7
	return []struct {
		name string
		expr query.Expr
		opts ExecOptions
	}{
		{"kw-all", query.Keyword{Text: "wind snow"}, ExecOptions{}},
		{"kw-any", query.Keyword{Text: "wind snow", Any: true}, ExecOptions{SortBy: SortRelevance}},
		{"kw-phrase", query.Keyword{Text: `"wind snow"`}, ExecOptions{}},
		{"kw-limit", query.Keyword{Text: "station", Any: true}, ExecOptions{Limit: 5}},
		{"kw-offset", query.Keyword{Text: "station", Any: true}, ExecOptions{Limit: 4, Offset: 3}},
		{"kw-rank", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortRank, Limit: 7}},
		{"kw-title-desc", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortTitle, Order: OrderDesc}},
		{"filter-pruned", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Property{Name: "samplingRate", Op: query.OpGt, Value: "10"},
		}}, ExecOptions{Limit: 6}},
		{"exact-structural", query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D1"},
			ExecOptions{SortBy: SortTitle, Limit: 5, Facets: []string{"samplingRate", "partOf"}}},
		{"exact-namespace", query.Namespace{Name: "Sensor"}, ExecOptions{SortBy: SortTitle, Limit: 9}},
		{"or-union", query.Or{Children: []query.Expr{
			query.Keyword{Text: "pyranometer", Any: true},
			query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D2"},
		}}, ExecOptions{SortBy: SortTitle}},
		{"negation", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Not{Child: query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D0"}},
		}}, ExecOptions{}},
		{"all-scan", query.All{}, ExecOptions{SortBy: SortTitle, Limit: 11, Facets: []string{"partOf"}}},
		{"alpha-fused", query.Keyword{Text: "wind temperature", Any: true}, ExecOptions{Alpha: &alpha, Limit: 8}},
		{"count-only", query.Keyword{Text: "wind", Any: true},
			ExecOptions{CountOnly: true, Facets: []string{"samplingRate"}}},
		{"count-exact", query.Namespace{Name: "Sensor"},
			ExecOptions{CountOnly: true, Facets: []string{"partOf"}}},
		{"no-prune", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Property{Name: "samplingRate", Op: query.OpGt, Value: "5"},
		}}, ExecOptions{noPrune: true}},
		{"acl-exact", query.Namespace{Name: "Sensor"},
			ExecOptions{SortBy: SortTitle, Limit: 9, User: aclUser, Facets: []string{"partOf"}}},
		{"acl-count-exact", query.Namespace{Name: "Sensor"},
			ExecOptions{CountOnly: true, User: aclUser, Facets: []string{"samplingRate"}}},
		{"acl-keyword", query.Keyword{Text: "wind snow", Any: true}, ExecOptions{User: aclUser}},
	}
}

// TestExecuteMatchesReference is the oracle of the executor: over
// randomized corpora, every execution path — results with their float
// scores, facet counts, matched totals and full cursor walks (tokens
// included) — must be byte-identical to the same call through the
// reference construction, which neither prunes candidates nor answers
// facets from the index. No result may be one the caller cannot read.
func TestExecuteMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			repo, ranks := randomFixture(t, rng, 60)
			e := NewEngine(repo)
			e.SetRanks(ranks)
			for _, tc := range execCases() {
				got, err := e.Execute(tc.expr, tc.opts)
				if err != nil {
					t.Fatalf("case %s: %v", tc.name, err)
				}
				want, err := e.Execute(tc.expr, WithoutPruning(WithoutFacetIndex(tc.opts)))
				if err != nil {
					t.Fatalf("case %s (reference): %v", tc.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %s diverges:\nexecuted  = %+v\nreference = %+v", tc.name, got, want)
				}
				for _, r := range got.Results {
					if !repo.ACL.CanRead(tc.opts.User, r.Title) {
						t.Fatalf("case %s: %q returned to %q, who cannot read it", tc.name, r.Title, tc.opts.User)
					}
				}
			}
			checkCursorWalksAgree(t, e)
		})
	}
}

// checkCursorWalksAgree pages the engine through each query twice, as
// executed and through the reference construction, and asserts every page
// AND every minted cursor token is byte-identical — tokens embed the
// sort-key values of the last row, so equal tokens are a stronger
// statement than equal pages. The pages of a walk, concatenated, must
// equal the unlimited sorted result.
func checkCursorWalksAgree(t *testing.T, e *Engine) {
	t.Helper()
	alpha := 0.4
	walks := []struct {
		name string
		expr query.Expr
		opts ExecOptions
	}{
		{"rel", query.Keyword{Text: "wind snow station", Any: true}, ExecOptions{Limit: 3}},
		{"title", query.Namespace{Name: "Sensor"}, ExecOptions{SortBy: SortTitle, Limit: 4}},
		{"title-acl", query.Namespace{Name: "Sensor"}, ExecOptions{SortBy: SortTitle, Limit: 4, User: aclUser}},
		{"rank-desc", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortRank, Limit: 2}},
		{"fused", query.Keyword{Text: "wind temperature", Any: true}, ExecOptions{Alpha: &alpha, Limit: 3}},
	}
	for _, w := range walks {
		gotPages, gotTokens := cursorWalk(t, e, w.expr, w.opts)
		wantPages, wantTokens := cursorWalk(t, e, w.expr, WithoutPruning(WithoutFacetIndex(w.opts)))
		if !reflect.DeepEqual(gotPages, wantPages) {
			t.Fatalf("walk %s pages diverge:\nexecuted  = %+v\nreference = %+v", w.name, gotPages, wantPages)
		}
		if !reflect.DeepEqual(gotTokens, wantTokens) {
			t.Fatalf("walk %s cursor tokens diverge:\nexecuted  = %v\nreference = %v", w.name, gotTokens, wantTokens)
		}
		unlimited := w.opts
		unlimited.Limit = 0
		all, err := e.Execute(w.expr, unlimited)
		if err != nil {
			t.Fatalf("walk %s unlimited: %v", w.name, err)
		}
		var walked []Result
		for _, page := range gotPages {
			walked = append(walked, page...)
		}
		if len(all.Results) < 2*w.opts.Limit {
			t.Fatalf("walk %s: %d results, too few to page", w.name, len(all.Results))
		}
		if !reflect.DeepEqual(walked, all.Results) {
			t.Fatalf("walk %s: pages concatenate to\n%+v\nunlimited result is\n%+v", w.name, walked, all.Results)
		}
	}
}

// cursorWalk follows NextCursor to exhaustion, returning every page of
// results and every token minted along the way.
func cursorWalk(t *testing.T, e *Engine, expr query.Expr, opts ExecOptions) ([][]Result, []string) {
	t.Helper()
	var pages [][]Result
	var tokens []string
	for steps := 0; ; steps++ {
		if steps > 1000 {
			t.Fatal("cursor walk did not terminate")
		}
		res, err := e.Execute(expr, opts)
		if err != nil {
			t.Fatalf("cursor walk: %v", err)
		}
		pages = append(pages, res.Results)
		if res.NextCursor == "" {
			return pages, tokens
		}
		tokens = append(tokens, res.NextCursor)
		opts.Cursor = res.NextCursor
	}
}
