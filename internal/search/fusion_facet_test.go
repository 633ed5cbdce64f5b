package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/smr"
)

// refFuse is the reference post-hoc fusion over a materialized result
// set: normalize relevance and rank by their maxima over the set, order by
// alpha·rel + (1−alpha)·rank descending, title tie-break. The in-executor
// fusion must reproduce this ordering exactly.
func refFuse(rs []Result, alpha float64) []Result {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	var maxRel, maxRank float64
	for _, r := range rs {
		if r.Relevance > maxRel {
			maxRel = r.Relevance
		}
		if r.Rank > maxRank {
			maxRank = r.Rank
		}
	}
	combined := func(r Result) float64 {
		rel, rank := 0.0, 0.0
		if maxRel > 0 {
			rel = r.Relevance / maxRel
		}
		if maxRank > 0 {
			rank = r.Rank / maxRank
		}
		return alpha*rel + (1-alpha)*rank
	}
	sort.SliceStable(rs, func(i, j int) bool {
		ci, cj := combined(rs[i]), combined(rs[j])
		if ci != cj {
			return ci > cj
		}
		return rs[i].Title < rs[j].Title
	})
	return rs
}

// fusionFixture equips the execute fixture with a deterministic synthetic
// PageRank vector so fused orderings are non-trivial.
func fusionFixture(t testing.TB, sensors int) *Engine {
	t.Helper()
	_, e := executeFixture(t, sensors)
	ranks := map[string]float64{}
	for i, title := range e.repo.Wiki.Titles() {
		ranks[title] = float64((i*37)%101) / 101
	}
	e.SetRanks(ranks)
	return e
}

// TestAlphaFusionMatchesLegacyReSort pins the tentpole equivalence: for a
// spread of alphas and expressions, the executor's in-heap fusion produces
// exactly the ordering of the reference materialize-then-re-sort, and a
// Limit returns exactly the head of that ordering.
func TestAlphaFusionMatchesLegacyReSort(t *testing.T) {
	e := fusionFixture(t, 90)
	exprs := []query.Expr{
		query.Keyword{Text: "sensor station", Any: true},
		query.And{Children: []query.Expr{
			query.Keyword{Text: "sensor", Any: true},
			query.Namespace{Name: "Sensor"},
		}},
		query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"}, // relevance all-zero
		query.All{},
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for i, expr := range exprs {
			baseline, err := e.Execute(expr, ExecOptions{})
			if err != nil {
				t.Fatalf("alpha %v expr %d baseline: %v", alpha, i, err)
			}
			want := refFuse(append([]Result(nil), baseline.Results...), alpha)
			a := alpha
			fused, err := e.Execute(expr, ExecOptions{Alpha: &a})
			if err != nil {
				t.Fatalf("alpha %v expr %d fused: %v", alpha, i, err)
			}
			if !reflect.DeepEqual(fused.Results, want) {
				t.Fatalf("alpha %v expr %d: in-executor fusion diverges from reference re-sort\ngot  %v\nwant %v",
					alpha, i, head(fused.Results, 5), head(want, 5))
			}
			limited, err := e.Execute(expr, ExecOptions{Alpha: &a, Limit: 7})
			if err != nil {
				t.Fatal(err)
			}
			if wantHead := head(want, 7); !reflect.DeepEqual(limited.Results, wantHead) {
				t.Fatalf("alpha %v expr %d: top-7 fused page diverges\ngot  %v\nwant %v",
					alpha, i, limited.Results, wantHead)
			}
		}
	}
}

func head(rs []Result, k int) []Result {
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// TestAlphaCursorWalk checks keyset pagination under fusion: walking every
// page reproduces the unpaginated fused order, and cursors are bound to
// the alpha they were minted under.
func TestAlphaCursorWalk(t *testing.T) {
	e := fusionFixture(t, 60)
	expr := query.Keyword{Text: "sensor", Any: true}
	alpha := 0.4
	all, err := e.Execute(expr, ExecOptions{Alpha: &alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) < 15 {
		t.Fatalf("fixture too small: %d results", len(all.Results))
	}
	var walked []Result
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 30 {
			t.Fatal("cursor walk did not terminate")
		}
		page, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 7, Cursor: cursor})
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if page.Matched != all.Matched {
			t.Fatalf("page %d matched=%d, want %d", pages, page.Matched, all.Matched)
		}
		walked = append(walked, page.Results...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(walked, all.Results) {
		t.Fatalf("fused cursor walk diverges from unpaginated order:\nwalked %v\nall    %v",
			head(walked, 5), head(all.Results, 5))
	}

	// A cursor minted under one alpha must not page another alpha, nor an
	// unfused request — and vice versa.
	first, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 3})
	if err != nil || first.NextCursor == "" {
		t.Fatalf("minting fused cursor: %v (cursor %q)", err, first.NextCursor)
	}
	other := 0.6
	cases := []ExecOptions{
		{Alpha: &other, Limit: 3, Cursor: first.NextCursor},
		{Limit: 3, Cursor: first.NextCursor},
	}
	for i, opts := range cases {
		if _, err := e.Execute(expr, opts); err == nil {
			t.Fatalf("case %d: stale cursor accepted across alpha change", i)
		} else if qe, ok := err.(*query.Error); !ok || qe.Code != "bad_cursor" {
			t.Fatalf("case %d: error = %v, want bad_cursor", i, err)
		}
	}
	plain, err := e.Execute(expr, ExecOptions{Limit: 3})
	if err != nil || plain.NextCursor == "" {
		t.Fatalf("minting unfused cursor: %v", err)
	}
	if _, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 3, Cursor: plain.NextCursor}); err == nil {
		t.Fatal("unfused cursor accepted by fused request")
	}
}

// TestCursorSignatureNoBoundaryCollision pins the length-prefixed hashing:
// caller-controlled parts containing separator-ish bytes must not be able
// to shift bytes across part boundaries and collide (a collision would let
// a cursor minted for one combined query page another).
func TestCursorSignatureNoBoundaryCollision(t *testing.T) {
	cases := [][2][]string{
		{{"q", "p\x00s"}, {"q\x00p", "s"}},
		{{"qp", "s"}, {"q", "ps"}},
		{{"a", "", "b"}, {"a", "b", ""}},
		{{"ab"}, {"a", "b"}},
	}
	for i, c := range cases {
		if CursorSignature(c[0]...) == CursorSignature(c[1]...) {
			t.Errorf("case %d: %q and %q collide", i, c[0], c[1])
		}
	}
	if CursorSignature("a", "b") != CursorSignature("a", "b") {
		t.Error("signature not deterministic")
	}
}

// TestAlphaRejectsExplicitSort checks the executor refuses the ambiguous
// combination: fusion defines the order, so an explicit title/rank sort is
// a bad request.
func TestAlphaRejectsExplicitSort(t *testing.T) {
	e := fusionFixture(t, 10)
	alpha := 0.5
	for _, key := range []SortKey{SortTitle, SortRank} {
		_, err := e.Execute(query.All{}, ExecOptions{Alpha: &alpha, SortBy: key})
		if qe, ok := err.(*query.Error); !ok || qe.Code != "bad_request" || qe.Field != "sort" {
			t.Fatalf("sort %q with alpha: err = %v, want bad_request on sort", key, err)
		}
	}
	if _, err := e.Execute(query.All{}, ExecOptions{Alpha: &alpha, SortBy: SortRelevance}); err != nil {
		t.Fatalf("sort relevance with alpha should be accepted: %v", err)
	}
}

// facetRandomRepo builds a corpus designed to stress the facet fast path's
// exactness claims: mixed-case property names and values (fold siblings),
// duplicate annotations on one page (occurrence counting), multi-valued
// properties, several namespaces and categories.
func facetRandomRepo(t testing.TB, rng *rand.Rand, pages int) *smr.Repository {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	statuses := []string{"Active", "active", "ACTIVE", "retired", "Maintenance"}
	measures := []string{"temperature", "Temperature", "wind speed", "humidity"}
	namespaces := []string{"Sensor", "Deployment", "Fieldsite"}
	for i := 0; i < pages; i++ {
		ns := namespaces[rng.Intn(len(namespaces))]
		text := ""
		for a, n := 0, rng.Intn(4); a < n; a++ {
			text += fmt.Sprintf("[[status::%s]] ", statuses[rng.Intn(len(statuses))])
		}
		if rng.Intn(2) == 0 {
			prop := []string{"measures", "Measures", "MEASURES"}[rng.Intn(3)]
			text += fmt.Sprintf("[[%s::%s]] ", prop, measures[rng.Intn(len(measures))])
		}
		if rng.Intn(2) == 0 {
			text += fmt.Sprintf("[[samplingRate::%d]] ", 1+rng.Intn(30))
		}
		if rng.Intn(3) == 0 {
			text += "[[Category:Stations]] "
		}
		text += "alpine station logger"
		if _, err := repo.PutPage(fmt.Sprintf("%s:P-%03d", ns, i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// TestFacetIndexMatchesStreaming is the facet fast path's equivalence
// property: over randomized corpora with fold-sibling values and duplicate
// annotations, index-served facet counts and matched totals are identical
// to the streaming (per-page evaluation) path for every filter-only
// expression shape, and keyword expressions keep working via streaming.
func TestFacetIndexMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		repo := facetRandomRepo(t, rng, 60+rng.Intn(60))
		e := NewEngine(repo)
		exprs := []query.Expr{
			query.All{},
			query.Namespace{Name: "sensor"},
			query.Property{Name: "STATUS", Op: query.OpEq, Value: "active"},
			query.Property{Name: "status", Op: query.OpNe, Value: "retired"},
			query.Property{Name: "measures", Op: query.OpContains, Value: "temp"},
			query.Range{Name: "samplingRate", Min: "5", Max: "20"},
			query.HasProperty{Name: "Measures"},
			query.Category{Name: "stations"},
			query.TitlePrefix{Prefix: "Sensor:P-0"},
			query.Not{Child: query.HasProperty{Name: "status"}},
			query.And{Children: []query.Expr{
				query.Namespace{Name: "Sensor"},
				query.Property{Name: "status", Op: query.OpEq, Value: "Active"},
			}},
			query.Or{Children: []query.Expr{
				query.Category{Name: "Stations"},
				query.Range{Name: "samplingRate", Min: "25", Max: ""},
			}},
			query.Keyword{Text: "alpine"}, // keyword: streaming on both sides
		}
		props := []string{"status", "measures", "samplingRate"}
		for i, expr := range exprs {
			stream, err := e.Execute(expr, ExecOptions{
				CountOnly: true, Facets: props, DisableFacetIndex: true,
			})
			if err != nil {
				t.Fatalf("trial %d expr %d stream: %v", trial, i, err)
			}
			fast, err := e.Execute(expr, ExecOptions{CountOnly: true, Facets: props})
			if err != nil {
				t.Fatalf("trial %d expr %d fast: %v", trial, i, err)
			}
			if fast.Matched != stream.Matched {
				t.Fatalf("trial %d expr %d: matched %d (index) vs %d (stream)",
					trial, i, fast.Matched, stream.Matched)
			}
			if !reflect.DeepEqual(fast.Facets, stream.Facets) {
				t.Fatalf("trial %d expr %d: facets diverge\nindex  %v\nstream %v",
					trial, i, fast.Facets, stream.Facets)
			}
			// The same equivalence must hold when results are materialized
			// alongside (the /api/search?facet= shape).
			full, err := e.Execute(expr, ExecOptions{Facets: props, Limit: 5})
			if err != nil {
				t.Fatal(err)
			}
			if full.Matched != stream.Matched || !reflect.DeepEqual(full.Facets, stream.Facets) {
				t.Fatalf("trial %d expr %d: materializing execution diverges from streaming facets", trial, i)
			}
		}
	}
}

// TestFacetIndexHonoursACL checks the fast path filters denied pages
// exactly like per-page evaluation does.
func TestFacetIndexHonoursACL(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	repo := facetRandomRepo(t, rng, 50)
	denied := repo.Wiki.Titles()[:10]
	for _, title := range denied {
		repo.ACL.DenyPage("restricted", title)
	}
	e := NewEngine(repo)
	expr := query.HasProperty{Name: "status"}
	for _, user := range []string{"", "restricted"} {
		stream, err := e.Execute(expr, ExecOptions{
			CountOnly: true, User: user, Facets: []string{"status"}, DisableFacetIndex: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := e.Execute(expr, ExecOptions{CountOnly: true, User: user, Facets: []string{"status"}})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Matched != stream.Matched || !reflect.DeepEqual(fast.Facets, stream.Facets) {
			t.Fatalf("user %q: index-served facets diverge from streaming under ACL", user)
		}
	}
	anon, _ := e.Execute(expr, ExecOptions{CountOnly: true})
	restricted, _ := e.Execute(expr, ExecOptions{CountOnly: true, User: "restricted"})
	if restricted.Matched >= anon.Matched {
		t.Fatalf("ACL did not bite: restricted %d vs anonymous %d", restricted.Matched, anon.Matched)
	}
}
