package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/smr"
)

// randomPageText generates wikitext with links, annotations and prose so
// interleavings exercise every index structure.
func randomPageText(rng *rand.Rand) string {
	words := []string{"wind", "temperature", "snow", "ridge", "valley", "anemometer", "pyranometer", "alpine", "station", "logger"}
	text := ""
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		text += words[rng.Intn(len(words))] + " "
	}
	if rng.Intn(2) == 0 {
		text += fmt.Sprintf("[[partOf::Deployment:D%d]] ", rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		text += fmt.Sprintf("[[samplingRate::%d]] ", 1+rng.Intn(60))
	}
	if rng.Intn(3) == 0 {
		text += fmt.Sprintf("[[Sensor:S%d]] ", rng.Intn(8))
	}
	return text
}

// checkEngineEquivalence asserts that the incrementally maintained engine
// and a from-scratch rebuild of the same repository answer identically.
func checkEngineEquivalence(t *testing.T, repo *smr.Repository, incr *Engine, step int) {
	t.Helper()
	checkEnginesAgree(t, NewEngine(repo), incr, step)
}

// checkEnginesAgree asserts two engines over the same repository answer
// every query, autocomplete and facet request identically.
func checkEnginesAgree(t *testing.T, fresh, incr *Engine, step int) {
	t.Helper()
	queries := []Query{
		{Keywords: "wind"},
		{Keywords: "wind snow", Mode: ModeAny},
		{Keywords: "wind snow", Mode: ModeAll},
		{Keywords: `"wind snow"`},
		{Keywords: "temperature", SortBy: SortTitle, Order: OrderDesc},
		{Keywords: "station", Limit: 3},
		{Keywords: "station", Limit: 2, Offset: 1},
		{SortBy: SortTitle},
		{Filters: []PropertyFilter{{Property: "samplingRate", Op: OpGreater, Value: "10"}}},
		{Namespace: "Sensor", SortBy: SortTitle, Limit: 4},
	}
	for qi, q := range queries {
		got, err := legacySearch(incr, q)
		if err != nil {
			t.Fatalf("step %d query %d: %v", step, qi, err)
		}
		want, err := legacySearch(fresh, q)
		if err != nil {
			t.Fatalf("step %d query %d: %v", step, qi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d query %d (%+v):\nincremental = %+v\nrebuilt     = %+v", step, qi, q, got, want)
		}
	}
	for _, prefix := range []string{"s", "wi", "Sensor:", "an", "temp"} {
		got := incr.Autocomplete(prefix, 10)
		want := fresh.Autocomplete(prefix, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d autocomplete %q:\nincremental = %+v\nrebuilt     = %+v", step, prefix, got, want)
		}
	}
	// The metaIndex's sortedset postings (structural keys AND the raw-value
	// occurrence postings behind the facet fast path) must also converge to
	// the rebuilt state: index-served facet counts are pure functions of
	// them.
	facetQueries := []Query{
		{Namespace: "Sensor"},
		{Filters: []PropertyFilter{{Property: "samplingRate", Op: OpLessEq, Value: "30"}}},
		{},
	}
	for qi, q := range facetQueries {
		gotF, gotN, err := countFacets(incr, q, "samplingRate", "partOf")
		if err != nil {
			t.Fatalf("step %d facet query %d: %v", step, qi, err)
		}
		wantF, wantN, err := countFacets(fresh, q, "samplingRate", "partOf")
		if err != nil {
			t.Fatalf("step %d facet query %d: %v", step, qi, err)
		}
		if gotN != wantN || !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("step %d facet query %d:\nincremental = %d %+v\nrebuilt     = %d %+v",
				step, qi, gotN, gotF, wantN, wantF)
		}
	}
}

// TestIncrementalUpdateMatchesRebuild is the property test of the
// incremental path: for random interleavings of PutPage, DeletePage and
// Engine.Update, the incrementally maintained engine must answer every
// query and autocomplete identically to an engine rebuilt from scratch.
func TestIncrementalUpdateMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			repo, err := smr.New()
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(repo)
			titles := make([]string, 12)
			for i := range titles {
				titles[i] = fmt.Sprintf("Sensor:S%d", i)
			}
			for step := 0; step < 120; step++ {
				title := titles[rng.Intn(len(titles))]
				switch rng.Intn(4) {
				case 0:
					repo.DeletePage(title)
				default:
					if _, err := repo.PutPage(title, "t", randomPageText(rng), ""); err != nil {
						t.Fatal(err)
					}
				}
				// Refresh the engine at random points, so update batches of
				// varying size (including coalesced multi-writes of the same
				// page) all get exercised.
				if rng.Intn(3) == 0 {
					e.Update()
					checkEngineEquivalence(t, repo, e, step)
				}
			}
			e.Update()
			checkEngineEquivalence(t, repo, e, -1)
		})
	}
}

// TestEngineUpdateStats pins the stats contract Refresh relies on.
func TestEngineUpdateStats(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(repo)
	if st := e.Update(); st.Applied != 0 || st.Full {
		t.Fatalf("idle update stats = %+v", st)
	}
	if _, err := repo.PutPage("Sensor:U1", "t", "plain prose", ""); err != nil {
		t.Fatal(err)
	}
	st := e.Update()
	if st.Applied != 1 {
		t.Fatalf("new-page update stats = %+v", st)
	}
	if _, err := repo.PutPage("Sensor:U1", "t", "different prose", ""); err != nil {
		t.Fatal(err)
	}
	st = e.Update()
	if st.Applied != 1 {
		t.Fatalf("text-only update stats = %+v", st)
	}
	if st.Seq != repo.LastSeq() {
		t.Fatalf("stats seq = %d, repo seq = %d", st.Seq, repo.LastSeq())
	}
	// Writes of several pages coalesce per title.
	for i := 0; i < 3; i++ {
		if _, err := repo.PutPage("Sensor:U2", "t", fmt.Sprintf("rev %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if st = e.Update(); st.Applied != 1 {
		t.Fatalf("coalesced update stats = %+v", st)
	}
	// A trimmed journal forces a full rebuild.
	if _, err := repo.PutPage("Sensor:U3", "t", "x", ""); err != nil {
		t.Fatal(err)
	}
	repo.Journal().TrimTo(repo.LastSeq())
	if _, err := repo.PutPage("Sensor:U3", "t", "y [[Sensor:U1]]", ""); err != nil {
		t.Fatal(err)
	}
	repo.Journal().TrimTo(repo.LastSeq())
	st = e.Update()
	if !st.Full {
		t.Fatalf("post-trim update stats = %+v", st)
	}
	rs, err := legacySearch(e, Query{Keywords: "Sensor U3", Mode: ModeAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("rebuilt engine misses trimmed-journal page")
	}
}

// TestIndexSlotReuse pins the dense-id recycling Remove/Add perform.
func TestIndexSlotReuse(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "alpha beta")
	ix.Add("b", "beta gamma")
	ix.Remove("a")
	ix.Add("c", "alpha delta") // reuses a's slot (doc 0), below b (doc 1)
	if n := ix.NumDocs(); n != 2 {
		t.Fatalf("NumDocs = %d", n)
	}
	hits := ix.Search("beta", ModeAll)
	if len(hits) != 1 || hits[0].ID != "b" {
		t.Fatalf("beta hits = %v", hits)
	}
	hits = ix.Search("alpha delta", ModeAll)
	if len(hits) != 1 || hits[0].ID != "c" {
		t.Fatalf("alpha delta hits = %v", hits)
	}
	// The reused slot's posting sits before b's in the sorted lists; phrase
	// lookup must still binary-search correctly.
	ix.Add("c", "alpha delta echo")
	if hits = ix.Search(`"delta echo"`, ModeAll); len(hits) != 1 || hits[0].ID != "c" {
		t.Fatalf("phrase hits = %v", hits)
	}
}

// TestTrieRefcounting pins the incremental insert/remove semantics.
func TestTrieRefcounting(t *testing.T) {
	tr := NewTrie()
	tr.Insert("wind", 1)
	tr.Insert("wind", 1) // second document referencing the term
	tr.Insert("Wind", 2) // a page titled "Wind"
	if got := tr.Complete("wi", 10); len(got) != 1 || got[0].Weight != 2 || got[0].Text != "Wind" {
		t.Fatalf("Complete = %v", got)
	}
	tr.Remove("Wind", 2) // page deleted: falls back to the term entry
	if got := tr.Complete("wi", 10); len(got) != 1 || got[0].Weight != 1 || got[0].Text != "wind" {
		t.Fatalf("after title removal: %v", got)
	}
	tr.Remove("wind", 1)
	if got := tr.Complete("wi", 10); len(got) != 1 {
		t.Fatalf("after first term release: %v", got)
	}
	tr.Remove("wind", 1)
	if got := tr.Complete("wi", 10); got != nil {
		t.Fatalf("after last release: %v", got)
	}
	if tr.size != 0 {
		t.Fatalf("Len = %d", tr.size)
	}
	// Removing unknown entries or classes is a no-op.
	tr.Remove("wind", 1)
	tr.Insert("window", 1)
	tr.Remove("window", 2)
	if got := tr.Complete("win", 10); len(got) != 1 || got[0].Text != "window" {
		t.Fatalf("no-op removals broke state: %v", got)
	}
}

// TestTriePrunesBranches verifies removed entries release their nodes: a
// fully removed subtree must make the prefix unknown again.
func TestTriePrunesBranches(t *testing.T) {
	tr := NewTrie()
	tr.Insert("alpha", 1)
	tr.Insert("alphabet", 1)
	tr.Remove("alphabet", 1)
	if got := tr.Complete("alphab", 10); got != nil {
		t.Fatalf("pruned branch still completes: %v", got)
	}
	if got := tr.Complete("alpha", 10); len(got) != 1 {
		t.Fatalf("surviving entry lost: %v", got)
	}
	tr.Remove("alpha", 1)
	if got := tr.Complete("a", 10); got != nil {
		t.Fatalf("empty trie still completes: %v", got)
	}
}

// TestEngineConcurrentSearchUpdate drives Search, Autocomplete, SetRanks
// and Update concurrently; run with -race this covers the SetRanks data
// race fixed by the engine lock and the index/trie locking of the
// incremental path.
func TestEngineConcurrentSearchUpdate(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:C%d", i), "t", "wind sensor prose", ""); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(repo)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := legacySearch(e, Query{Keywords: "wind", Limit: 5}); err != nil {
					t.Error(err)
					return
				}
				e.Autocomplete("wi", 5)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			e.SetRanks(map[string]float64{fmt.Sprintf("Sensor:C%d", i%20): float64(i)})
		}
	}()
	for i := 0; i < 50; i++ {
		title := fmt.Sprintf("Sensor:C%d", i%20)
		if i%7 == 0 {
			repo.DeletePage(title)
		} else {
			if _, err := repo.PutPage(title, "t", fmt.Sprintf("wind sensor rev %d", i), ""); err != nil {
				t.Fatal(err)
			}
		}
		e.Update()
	}
	close(stop)
	wg.Wait()
}
