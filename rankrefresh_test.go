package sensormeta

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/smr"
)

// rankRefreshWrites returns one batch that moves every sensor to the
// deployment round r assigns it, so each refresh changes the link graph
// and re-solves PageRank.
func rankRefreshWrites(r int) []smr.PageWrite {
	var out []smr.PageWrite
	for i := 0; i < 16; i++ {
		out = append(out, smr.PageWrite{
			Title:  fmt.Sprintf("Sensor:S%02d", i),
			Author: "t",
			Text: fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::wind speed]] [[status::active]] wind sensor %d",
				(i*(r+1)+r)%4, i),
		})
	}
	return out
}

// TestRankRefreshConcurrentReaders races every reader of PageRank scores
// against link-moving batch writes, each followed by a refresh that
// re-solves and installs a new score vector. Under -race it checks that
// scores reach readers through synchronized holders; its assertion checks
// that every page of a combined query is ordered by one published vector
// and that its cursor carries that vector's score for the last row.
func TestRankRefreshConcurrentReaders(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	var base []smr.PageWrite
	for i := 0; i < 3; i++ {
		base = append(base, smr.PageWrite{Title: fmt.Sprintf("Fieldsite:F%d", i), Author: "t", Text: "wind site"})
	}
	for i := 0; i < 4; i++ {
		base = append(base, smr.PageWrite{Title: fmt.Sprintf("Deployment:D%d", i), Author: "t",
			Text: fmt.Sprintf("[[locatedIn::Fieldsite:F%d]] wind deployment", i%3)})
	}
	if _, err := sys.PutPages(append(base, rankRefreshWrites(0)...)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	// published collects every score vector the refreshes installed; score
	// maps are immutable once published, so holding them is safe.
	published := []map[string]float64{sys.Ranker.Scores()}
	type page struct {
		titles []string
		cursor string
	}
	const rounds = 25
	var (
		readers sync.WaitGroup
		done    atomic.Bool
		readErr atomic.Value
		pages   []page // appended by one reader, read after readers.Wait
	)
	readers.Add(3)
	go func() {
		defer readers.Done()
		for !done.Load() {
			res, err := sys.QueryCombined(core.CombinedQuery{Keywords: "wind", Limit: 6})
			if err != nil {
				readErr.Store(err)
				return
			}
			pages = append(pages, page{res.Titles, res.NextCursor})
		}
	}()
	go func() {
		defer readers.Done()
		for !done.Load() {
			if _, err := sys.Search(search.Query{Keywords: "wind", SortBy: search.SortRank, Limit: 5}); err != nil {
				readErr.Store(err)
				return
			}
			sys.Recommend([]string{"Sensor:S00"}, "", 5)
			sys.TopProperties(3)
		}
	}()
	go func() {
		defer readers.Done()
		for !done.Load() {
			sys.Ranker.Score("Deployment:D0")
			sys.Ranker.TopPages(3)
		}
	}()

	var writeErr error
	for r := 1; r <= rounds && writeErr == nil; r++ {
		if _, writeErr = sys.PutPages(rankRefreshWrites(r)); writeErr == nil {
			writeErr = sys.Refresh()
		}
		published = append(published, sys.Ranker.Scores())
	}
	done.Store(true)
	readers.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if v := readErr.Load(); v != nil {
		t.Fatal(v)
	}
	if st := sys.Stats(); st.PageRankWarm < rounds {
		t.Fatalf("%d warm solves over %d link-moving refreshes", st.PageRankWarm, rounds)
	}

	orderedBy := func(p page, v map[string]float64) bool {
		for i := 1; i < len(p.titles); i++ {
			a, b := p.titles[i-1], p.titles[i]
			if v[a] < v[b] || (v[a] == v[b] && a > b) {
				return false
			}
		}
		if p.cursor == "" {
			return true
		}
		var c struct {
			Score float64 `json:"p"`
			Title string  `json:"t"`
		}
		if err := search.DecodeCursorToken(p.cursor, &c); err != nil {
			return false
		}
		last := p.titles[len(p.titles)-1]
		return c.Title == last && c.Score == v[last]
	}
	if len(pages) == 0 {
		t.Fatal("no combined query completed")
	}
	for _, p := range pages {
		ok := false
		for _, v := range published {
			if orderedBy(p, v) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("combined page %v (cursor %q) is not ordered by any one published score vector", p.titles, p.cursor)
		}
	}
}
