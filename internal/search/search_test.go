package search

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/smr"
	"repro/internal/wiki"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Wind-01 sensor measures wind speed at 2,440m!")
	want := []string{"wind", "01", "sensor", "measures", "wind", "speed", "440m"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if Tokenize("") != nil {
		t.Error("empty text should tokenize to nil")
	}
	if Tokenize("a I x") != nil {
		t.Error("stopwords/single chars should vanish")
	}
}

func TestIndexSearchRanking(t *testing.T) {
	ix := NewIndex()
	ix.Add("doc-wind", "wind wind wind sensor")
	ix.Add("doc-temp", "temperature sensor")
	ix.Add("doc-mixed", "wind and temperature sensor together with many other words diluting")

	hits := ix.Search("wind", ModeAll)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].ID != "doc-wind" {
		t.Errorf("highest tf should win: %v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Error("scores not descending")
	}
}

func TestIndexModeAllVsAny(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "wind speed")
	ix.Add("b", "wind direction")
	ix.Add("c", "snow height")

	all := ix.Search("wind speed", ModeAll)
	if len(all) != 1 || all[0].ID != "a" {
		t.Errorf("ModeAll = %v", all)
	}
	any := ix.Search("wind speed", ModeAny)
	if len(any) != 2 {
		t.Errorf("ModeAny = %v", any)
	}
}

func TestIndexUpdateAndRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add("x", "alpha beta")
	ix.Add("x", "gamma delta") // replace
	if hits := ix.Search("alpha", ModeAll); hits != nil {
		t.Errorf("stale term still matches: %v", hits)
	}
	if hits := ix.Search("gamma", ModeAll); len(hits) != 1 {
		t.Errorf("new term missing: %v", hits)
	}
	ix.Remove("x")
	if hits := ix.Search("gamma", ModeAll); hits != nil {
		t.Errorf("removed doc still matches: %v", hits)
	}
	if ix.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
}

func TestIndexEmptyQueries(t *testing.T) {
	ix := NewIndex()
	ix.Add("x", "something")
	if ix.Search("", ModeAll) != nil {
		t.Error("empty query returned hits")
	}
	if ix.Search("the a", ModeAll) != nil {
		t.Error("stopword-only query returned hits")
	}
	if ix.Search("missing", ModeAll) != nil {
		t.Error("unknown term returned hits")
	}
}

func TestPhraseSearch(t *testing.T) {
	ix := NewIndex()
	ix.Add("exact", "measures wind speed at the ridge")
	ix.Add("scrambled", "speed of wind measures nothing")
	ix.Add("partial", "wind measurement")

	hits := ix.Search(`"wind speed"`, ModeAll)
	if len(hits) != 1 || hits[0].ID != "exact" {
		t.Errorf(`"wind speed" hits = %v`, hits)
	}
	// Phrase plus free terms.
	hits = ix.Search(`"wind speed" ridge`, ModeAll)
	if len(hits) != 1 || hits[0].ID != "exact" {
		t.Errorf("phrase+term hits = %v", hits)
	}
	// Free-term search still matches both orderings.
	hits = ix.Search(`wind speed`, ModeAll)
	if len(hits) != 2 {
		t.Errorf("unquoted hits = %v", hits)
	}
	// Unbalanced quote degrades to free text.
	hits = ix.Search(`"wind speed`, ModeAll)
	if len(hits) != 2 {
		t.Errorf("unbalanced quote hits = %v", hits)
	}
	// Stopwords inside phrases are dropped by tokenization, so the phrase
	// "speed at the ridge" reduces to adjacent content tokens.
	hits = ix.Search(`"speed ridge"`, ModeAll)
	if len(hits) != 1 || hits[0].ID != "exact" {
		t.Errorf("stopword-collapsed phrase hits = %v", hits)
	}
}

func TestPhraseSearchThreeTokens(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "alpha beta gamma delta")
	ix.Add("b", "alpha gamma beta delta")
	hits := ix.Search(`"alpha beta gamma"`, ModeAll)
	if len(hits) != 1 || hits[0].ID != "a" {
		t.Errorf("hits = %v", hits)
	}
	if got := ix.Search(`"beta gamma delta"`, ModeAll); len(got) != 1 || got[0].ID != "a" {
		t.Errorf("suffix phrase hits = %v", got)
	}
	if got := ix.Search(`"delta alpha"`, ModeAll); got != nil {
		t.Errorf("wrap-around phrase matched: %v", got)
	}
}

func TestTrieBasics(t *testing.T) {
	tr := NewTrie()
	tr.Insert("wind speed", 3)
	tr.Insert("wind direction", 5)
	tr.Insert("Wannengrat", 2)
	tr.Insert("", 1)     // ignored
	tr.Insert("zero", 0) // ignored
	tr.Insert("neg", -1) // ignored
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	got := tr.Complete("wind", 10)
	if len(got) != 2 || got[0].Text != "wind direction" || got[1].Text != "wind speed" {
		t.Errorf("Complete = %v", got)
	}
	// Case-insensitive prefix, original casing preserved.
	got = tr.Complete("WANN", 10)
	if len(got) != 1 || got[0].Text != "Wannengrat" {
		t.Errorf("case-insensitive complete = %v", got)
	}
	if tr.Complete("zz", 10) != nil {
		t.Error("unknown prefix returned completions")
	}
	if got := tr.Complete("w", 1); len(got) != 1 {
		t.Errorf("k-limit ignored: %v", got)
	}
	if tr.Complete("w", 0) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestTrieMaxWeightWins(t *testing.T) {
	tr := NewTrie()
	tr.Insert("wind", 1)
	tr.Insert("wind", 7)
	tr.Insert("wind", 3)
	got := tr.Complete("wi", 1)
	if len(got) != 1 || got[0].Weight != 7 {
		t.Errorf("Complete = %v, want weight 7", got)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

// Property: trie completion equals a naive prefix scan over the inserted
// vocabulary.
func TestTrieMatchesNaiveScanProperty(t *testing.T) {
	f := func(words []string, prefixByte byte) bool {
		tr := NewTrie()
		vocab := map[string]bool{}
		for _, w := range words {
			w = strings.ToLower(strings.TrimSpace(w))
			if w == "" {
				continue
			}
			tr.Insert(w, 1)
			vocab[w] = true
		}
		prefix := strings.ToLower(string(rune(prefixByte%26 + 'a')))
		var naive []string
		for w := range vocab {
			if strings.HasPrefix(w, prefix) {
				naive = append(naive, w)
			}
		}
		sort.Strings(naive)
		got := tr.Complete(prefix, len(vocab)+1)
		if len(got) != len(naive) {
			return false
		}
		for i, c := range got {
			if c.Text != naive[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// engineFixture builds an SMR + engine with a small corpus.
func engineFixture(t *testing.T) (*smr.Repository, *Engine) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	puts := []struct{ title, text string }{
		{"Fieldsite:Davos", "[[altitude::1560]] [[canton::GR]] Snow research valley site [[Category:Fieldsites]]"},
		{"Fieldsite:Wannengrat", "[[altitude::2440]] [[canton::GR]] Alpine ridge wind site [[Category:Fieldsites]]"},
		{"Deployment:SnowStudy", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]] snow measurement deployment"},
		{"Sensor:Wind-01", "[[partOf::Deployment:SnowStudy]] [[measures::wind speed]] [[samplingRate::10]] anemometer"},
		{"Sensor:Temp-01", "[[partOf::Deployment:SnowStudy]] [[measures::temperature]] [[samplingRate::1]] thermometer"},
	}
	for _, p := range puts {
		if _, err := repo.PutPage(p.title, "tester", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo, NewEngine(repo)
}

func TestEngineKeywordSearch(t *testing.T) {
	_, e := engineFixture(t)
	rs, err := legacySearch(e, Query{Keywords: "wind"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %+v", rs)
	}
	titles := []string{rs[0].Title, rs[1].Title}
	sort.Strings(titles)
	if titles[0] != "Fieldsite:Wannengrat" || titles[1] != "Sensor:Wind-01" {
		t.Errorf("titles = %v", titles)
	}
}

func TestEnginePropertyFilters(t *testing.T) {
	_, e := engineFixture(t)
	rs, err := legacySearch(e, Query{Filters: []PropertyFilter{
		{Property: "altitude", Op: OpGreater, Value: "2000"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Title != "Fieldsite:Wannengrat" {
		t.Errorf("results = %+v", rs)
	}
	if rs[0].Matched["altitude"] != "2440" {
		t.Errorf("matched = %v", rs[0].Matched)
	}
	// Multiple filters AND together.
	rs, err = legacySearch(e, Query{Filters: []PropertyFilter{
		{Property: "canton", Op: OpEquals, Value: "gr"},
		{Property: "altitude", Op: OpLess, Value: "2000"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Title != "Fieldsite:Davos" {
		t.Errorf("results = %+v", rs)
	}
	// Contains and not-equal.
	rs, _ = legacySearch(e, Query{Filters: []PropertyFilter{{Property: "measures", Op: OpContains, Value: "SPEED"}}})
	if len(rs) != 1 || rs[0].Title != "Sensor:Wind-01" {
		t.Errorf("contains results = %+v", rs)
	}
	rs, _ = legacySearch(e, Query{Filters: []PropertyFilter{{Property: "measures", Op: OpNotEqual, Value: "temperature"}}})
	if len(rs) != 1 || rs[0].Title != "Sensor:Wind-01" {
		t.Errorf("not-equal results = %+v", rs)
	}
	if _, err := legacySearch(e, Query{Filters: []PropertyFilter{{Property: "x", Op: "~", Value: "y"}}}); err == nil {
		t.Error("unknown operator accepted")
	}
}

func TestEngineNamespaceAndCategory(t *testing.T) {
	_, e := engineFixture(t)
	rs, _ := legacySearch(e, Query{Namespace: "Sensor", SortBy: SortTitle})
	if len(rs) != 2 || rs[0].Title != "Sensor:Temp-01" {
		t.Errorf("namespace results = %+v", rs)
	}
	rs, _ = legacySearch(e, Query{Category: "fieldsites", SortBy: SortTitle})
	if len(rs) != 2 {
		t.Errorf("category results = %+v", rs)
	}
}

func TestEngineSortAndOrder(t *testing.T) {
	_, e := engineFixture(t)
	e.SetRanks(map[string]float64{
		"Fieldsite:Davos": 0.5, "Sensor:Wind-01": 0.3, "Fieldsite:Wannengrat": 0.1,
	})
	rs, _ := legacySearch(e, Query{SortBy: SortRank})
	if rs[0].Title != "Fieldsite:Davos" {
		t.Errorf("rank sort = %+v", rs)
	}
	if rs[0].Rank != 0.5 {
		t.Errorf("rank carried = %v", rs[0].Rank)
	}
	rs, _ = legacySearch(e, Query{SortBy: SortRank, Order: OrderAsc})
	if rs[len(rs)-1].Title != "Fieldsite:Davos" {
		t.Errorf("ascending rank sort = %+v", rs)
	}
	rs, _ = legacySearch(e, Query{SortBy: SortTitle, Order: OrderDesc})
	if rs[0].Title != "Sensor:Wind-01" {
		t.Errorf("descending title sort = %+v", rs)
	}
}

func TestEngineLimitOffset(t *testing.T) {
	_, e := engineFixture(t)
	all, _ := legacySearch(e, Query{SortBy: SortTitle})
	if len(all) != 5 {
		t.Fatalf("corpus = %d", len(all))
	}
	page, _ := legacySearch(e, Query{SortBy: SortTitle, Limit: 2, Offset: 1})
	if len(page) != 2 || page[0].Title != all[1].Title {
		t.Errorf("pagination = %+v", page)
	}
	empty, _ := legacySearch(e, Query{SortBy: SortTitle, Offset: 99})
	if len(empty) != 0 {
		t.Errorf("big offset = %+v", empty)
	}
}

func TestEngineACLFiltering(t *testing.T) {
	repo, e := engineFixture(t)
	repo.ACL.SetAnonymousAccess(false)
	repo.ACL.Grant("alice", wiki.NamespaceSensor)
	rs, _ := legacySearch(e, Query{User: "alice", SortBy: SortTitle})
	if len(rs) != 2 {
		t.Fatalf("alice sees %d pages, want 2", len(rs))
	}
	for _, r := range rs {
		if !strings.HasPrefix(r.Title, "Sensor:") {
			t.Errorf("alice sees %s", r.Title)
		}
	}
	anon, _ := legacySearch(e, Query{SortBy: SortTitle})
	if len(anon) != 0 {
		t.Errorf("anonymous sees %d pages under locked policy", len(anon))
	}
}

func TestEngineAutocomplete(t *testing.T) {
	_, e := engineFixture(t)
	got := e.Autocomplete("Sensor:", 10)
	if len(got) != 2 {
		t.Errorf("title completions = %v", got)
	}
	// Term completions from the index.
	got = e.Autocomplete("anemo", 5)
	if len(got) != 1 || got[0].Text != "anemometer" {
		t.Errorf("term completions = %v", got)
	}
}

func TestEngineFacets(t *testing.T) {
	_, e := engineFixture(t)
	facets, matched, err := countFacets(e, Query{}, "canton", "measures")
	if err != nil {
		t.Fatal(err)
	}
	if matched != 5 {
		t.Errorf("matched = %d, want 5", matched)
	}
	if facets["canton"]["GR"] != 2 {
		t.Errorf("canton facet = %v", facets["canton"])
	}
	if facets["measures"]["wind speed"] != 1 || facets["measures"]["temperature"] != 1 {
		t.Errorf("measures facet = %v", facets["measures"])
	}
}

// TestEngineFacetCounts checks the streaming facet path agrees with
// counting over materialized results, honours query constraints, and
// ignores Limit/Offset.
func TestEngineFacetCounts(t *testing.T) {
	repo, e := engineFixture(t)
	rs, _ := legacySearch(e, Query{})
	want := pageFacets(repo, rs, "canton", "measures")
	got, matched, err := countFacets(e, Query{}, "canton", "measures")
	if err != nil {
		t.Fatal(err)
	}
	if matched != len(rs) {
		t.Errorf("matched = %d, want %d", matched, len(rs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("facet counts = %v, want %v", got, want)
	}
	// Limit must not truncate the counted set.
	limited, matchedLim, err := countFacets(e, Query{Limit: 1}, "canton")
	if err != nil {
		t.Fatal(err)
	}
	if matchedLim != matched || !reflect.DeepEqual(limited["canton"], want["canton"]) {
		t.Errorf("limited facet counts = %v (matched %d), want %v (matched %d)",
			limited["canton"], matchedLim, want["canton"], matched)
	}
	// Repeated or differently-cased properties must not double-count.
	dup, _, err := countFacets(e, Query{}, "canton", "CANTON", "canton")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dup["canton"], want["canton"]) {
		t.Errorf("duplicate properties double-counted: %v, want %v", dup["canton"], want["canton"])
	}
	// Constraints apply: keyword scope narrows the counts.
	kw, _, err := countFacets(e, Query{Keywords: "anemometer"}, "measures")
	if err != nil {
		t.Fatal(err)
	}
	if kw["measures"]["wind speed"] != 1 || len(kw["measures"]) != 1 {
		t.Errorf("keyword-scoped facet = %v", kw["measures"])
	}
	// Filter errors surface.
	if _, _, err := countFacets(e, Query{Filters: []PropertyFilter{{Property: "x", Op: "zz", Value: "1"}}}, "canton"); err == nil {
		t.Error("invalid filter op accepted")
	}
}

func TestEngineRebuildPicksUpChanges(t *testing.T) {
	repo, e := engineFixture(t)
	if _, err := repo.PutPage("Sensor:New-01", "tester", "[[measures::radiation]] pyranometer", ""); err != nil {
		t.Fatal(err)
	}
	// Before rebuild the new page is invisible to keyword search.
	rs, _ := legacySearch(e, Query{Keywords: "pyranometer"})
	if len(rs) != 0 {
		t.Errorf("unexpected hit before rebuild: %+v", rs)
	}
	e.Rebuild()
	rs, _ = legacySearch(e, Query{Keywords: "pyranometer"})
	if len(rs) != 1 {
		t.Errorf("hit missing after rebuild: %+v", rs)
	}
}

// legacySearch runs a flat legacy query the way System.Search does:
// LegacyExpr and LegacyOptions, then Execute.
func legacySearch(e *Engine, q Query) ([]Result, error) {
	res, err := runLegacy(e, q)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// runLegacy executes a flat legacy query, accumulating facet counts for
// the given properties in the same pass.
func runLegacy(e *Engine, q Query, facets ...string) (*ExecResult, error) {
	expr, err := LegacyExpr(q)
	if err != nil {
		return nil, err
	}
	opts := LegacyOptions(q)
	opts.Facets = facets
	return e.Execute(expr, opts)
}

// countFacets is the count-only facet path behind the charts and the
// drill-down counts: value counts over every page the query matches.
func countFacets(e *Engine, q Query, props ...string) (map[string]map[string]int, int, error) {
	expr, err := LegacyExpr(q)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.Execute(expr, ExecOptions{User: q.User, Facets: props, CountOnly: true})
	if err != nil {
		return nil, 0, err
	}
	return res.Facets, res.Matched, nil
}

// pageFacets is the reference facet count: read each result's page and
// count its values per property (keys lowercased).
func pageFacets(repo *smr.Repository, rs []Result, props ...string) map[string]map[string]int {
	out := make(map[string]map[string]int, len(props))
	for _, prop := range props {
		out[strings.ToLower(prop)] = make(map[string]int)
	}
	for _, r := range rs {
		page, ok := repo.Wiki.Get(r.Title)
		if !ok {
			continue
		}
		for _, prop := range props {
			for _, v := range page.PropertyValues(prop) {
				out[strings.ToLower(prop)][v]++
			}
		}
	}
	return out
}
