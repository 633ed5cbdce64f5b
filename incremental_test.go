package sensormeta

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/recommend"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// TestRefreshIncrementalMatchesFull drives random churn through Refresh and
// checks the system answers exactly like one rebuilt from scratch over the
// same repository: identical search results (PageRank scores compared
// within solver tolerance, everything else byte-identical) and identical
// autocomplete.
func TestRefreshIncrementalMatchesFull(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = 120
	opts.Deployments = 12
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sensors := sys.Repo.Wiki.PagesInNamespace("Sensor")
	for round := 0; round < 4; round++ {
		for i := 0; i < 10; i++ {
			title := sensors[rng.Intn(len(sensors))]
			switch rng.Intn(5) {
			case 0: // structural edit: new link target
				text := fmt.Sprintf("Relocated sensor.\n[[partOf::Deployment:Moved-%d]]\n[[measures::humidity]]\n", rng.Intn(3))
				if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			case 1:
				sys.Repo.DeletePage(title)
			default: // metadata-only edit, link structure untouched
				page, ok := sys.Repo.Wiki.Get(title)
				if !ok {
					continue
				}
				text := page.Text() + fmt.Sprintf("\n[[calibrated::%d]]\n", rng.Intn(1000))
				if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.Refresh(); err != nil {
			t.Fatal(err)
		}

		full := &System{Repo: sys.Repo}
		full.Engine = search.NewEngine(sys.Repo)
		full.QueryManager = core.NewManager(sys.Repo, full.Engine)
		if err := full.RefreshFull(); err != nil {
			t.Fatal(err)
		}
		queries := []search.Query{
			{Keywords: "temperature"},
			{Keywords: "humidity", SortBy: search.SortTitle},
			{Keywords: "sensor wind", Mode: search.ModeAny, Limit: 10},
			{Namespace: "Sensor", SortBy: search.SortTitle, Limit: 15, Offset: 5},
			{Filters: []search.PropertyFilter{{Property: "calibrated", Op: search.OpGreatEq, Value: "0"}}, SortBy: search.SortTitle},
		}
		for qi, q := range queries {
			got, err := sys.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d query %d: %d results incremental, %d full", round, qi, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				// PageRank solves (cold vs warm-started) agree only to the
				// solver tolerance; everything else must match exactly.
				if math.Abs(g.Rank-w.Rank) > 1e-6 {
					t.Fatalf("round %d query %d result %d: rank %v vs %v", round, qi, i, g.Rank, w.Rank)
				}
				g.Rank, w.Rank = 0, 0
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("round %d query %d result %d:\nincremental = %+v\nfull        = %+v", round, qi, i, g, w)
				}
			}
		}
		for _, prefix := range []string{"Sensor:", "temp", "hum", "Deployment:"} {
			got := sys.Autocomplete(prefix, 10)
			want := full.Autocomplete(prefix, 10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d autocomplete %q:\nincremental = %+v\nfull        = %+v", round, prefix, got, want)
			}
		}
	}
}

// TestRefreshIncrementalRecommenderAndTags drives random churn (page
// edits, deletes, tag assignments) through Refresh and checks the
// journal-consuming recommender and tagging pipeline answer exactly like
// from-scratch rebuilds over the same repository: identical property
// scores and recommendations (bit-identical floats — both paths sum
// contributions in sorted page order) and identical tag clouds (modulo
// RecursionSteps, which counts only work actually performed).
func TestRefreshIncrementalRecommenderAndTags(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = 100
	opts.Deployments = 10
	opts.TagsPerSensor = 2
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	sensors := sys.Repo.Wiki.PagesInNamespace("Sensor")
	tagPool := []string{"alpine", "glacier", "field", "hydro"}
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			title := sensors[rng.Intn(len(sensors))]
			switch rng.Intn(6) {
			case 0:
				sys.Repo.DeletePage(title)
			case 1: // structural edit
				text := fmt.Sprintf("[[partOf::Deployment:Moved-%d]]\n[[measures::humidity]]\n", rng.Intn(3))
				if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			case 2: // tag assignment
				if _, ok := sys.Repo.Wiki.Get(title); !ok {
					continue
				}
				if err := sys.Repo.AddTag(title, tagPool[rng.Intn(len(tagPool))], "churn"); err != nil {
					t.Fatal(err)
				}
			default: // metadata-only edit
				page, ok := sys.Repo.Wiki.Get(title)
				if !ok {
					continue
				}
				text := page.Text() + fmt.Sprintf("\n[[calibrated::%d]]\n", rng.Intn(1000))
				if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.Refresh(); err != nil {
			t.Fatal(err)
		}

		// Recommender: the incremental instance must match a from-scratch
		// build over the same repository and the same PageRank vector.
		rebuilt := recommend.New(sys.Repo, sys.Ranker.Scores())
		for _, k := range []int{3, 10} {
			if got, want := sys.Recommender.TopProperties(k), rebuilt.TopProperties(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: top-%d properties %v vs %v", round, k, got, want)
			}
		}
		seeds := []string{sensors[0], sensors[7], sensors[13]}
		if got, want := sys.Recommender.Recommend(seeds, "", 10), rebuilt.Recommend(seeds, "", 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recommendations diverge\nincremental = %+v\nrebuild     = %+v", round, got, want)
		}

		// Tag cloud: the pipeline's incremental cloud must match a
		// from-scratch Parser → Matrix → Graph → Clique run.
		got, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true})
		if err != nil {
			t.Fatal(err)
		}
		fresh := tagging.NewPipeline(sys.Repo, true)
		td, err := fresh.FetchTagData()
		if err != nil {
			t.Fatal(err)
		}
		want := tagging.BuildCloud(td, tagging.CloudOptions{UsePivot: true})
		g, w := *got, *want
		g.RecursionSteps, w.RecursionSteps = 0, 0
		if !reflect.DeepEqual(g.Cliques, w.Cliques) || !reflect.DeepEqual(g.Entries, w.Entries) {
			t.Fatalf("round %d: tag cloud diverges from rebuild", round)
		}
	}
	// The whole run must have been served by deltas, not rebuild fallbacks.
	st := sys.Stats()
	if st.Recommender.DeltaUpdates == 0 || st.Tagging.DeltaUpdates == 0 {
		t.Fatalf("deltas not exercised: %+v", st)
	}
	if st.Tagging.FullRebuilds > 1 || st.Recommender.FullRebuilds > 1 {
		t.Fatalf("unexpected rebuild fallbacks: %+v", st)
	}
}

// TestRefreshSkipsPageRankWhenLinksUnchanged checks the journal's
// link-change flag actually gates the solve: metadata-only churn must keep
// the Ranker instance, structural churn must replace it.
func TestRefreshSkipsPageRankWhenLinksUnchanged(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PutPage("Sensor:R1", "t", "[[partOf::Deployment:D1]] [[samplingRate::10]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	before := sys.Ranker
	// Metadata-only edit: PageRank must be skipped.
	if _, err := sys.PutPage("Sensor:R1", "t", "[[partOf::Deployment:D1]] [[samplingRate::60]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sys.Ranker != before {
		t.Fatal("metadata-only refresh recomputed PageRank")
	}
	// The index still picked the edit up.
	rs, err := sys.Search(search.Query{Filters: []search.PropertyFilter{{Property: "samplingRate", Op: search.OpEquals, Value: "60"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("edited annotation not searchable: %+v", rs)
	}
	// Structural edit: PageRank must run again.
	if _, err := sys.PutPage("Sensor:R1", "t", "[[partOf::Deployment:D2]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sys.Ranker == before {
		t.Fatal("structural refresh kept stale PageRank")
	}
	// And an idle refresh does nothing.
	before = sys.Ranker
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sys.Ranker != before {
		t.Fatal("idle refresh recomputed PageRank")
	}
}

// TestRefreshTrimsJournal checks consumed journal entries are released.
func TestRefreshTrimsJournal(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.PutPage(fmt.Sprintf("Sensor:T%d", i), "t", "prose", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Repo.Journal().Len(); n != 0 {
		t.Fatalf("journal retains %d entries after refresh", n)
	}
}

// TestServedCloudsImmutableUnderWrites checks that a tag cloud, once
// returned, never changes: readers JSON-encode every cloud TagCloud hands
// them and re-encode the clouds they hold while a writer overwrites pages
// with fresh annotation tokens, a refresher applies the journal, and the
// readers' alternating option sets force cache misses that re-derive
// components and splice the kept clique list. Run it under -race.
func TestServedCloudsImmutableUnderWrites(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	copts := workload.CorpusOptions{Sites: 4, Deployments: 12, Sensors: 150, Seed: 3, TagsPerSensor: 1}
	if _, err := workload.BuildCorpus(sys.Repo, copts); err != nil {
		t.Fatal(err)
	}
	ing := newIngestPool(24, sys.Repo.Wiki.PagesInNamespace(wiki.NamespaceDeployment))
	if _, err := sys.PutPages(ing.writes(len(ing.titles), "r0", false)); err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var wg sync.WaitGroup
	var clouds atomic.Int64 // clouds served to readers so far
	done := make(chan struct{})
	errs := make(chan error, 4) // one send at most per goroutine
	wg.Add(2)
	go func() { // writer: one batch per few served clouds
		defer wg.Done()
		defer close(done)
		for r := 1; r <= rounds; r++ {
			if _, err := sys.PutPages(ing.writes(4, fmt.Sprintf("c%d", r), r%3 == 0)); err != nil {
				errs <- err
				return
			}
			for seen := clouds.Load(); clouds.Load() < seen+3 && len(errs) == 0; {
				runtime.Gosched()
			}
		}
	}()
	go func() { // refresher
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := sys.Refresh(); err != nil {
				errs <- err
				return
			}
		}
	}()
	optSets := []tagging.CloudOptions{
		{UsePivot: true, MinFrequency: 20},
		{UsePivot: true},
		{UsePivot: false, Threshold: 0.3},
	}
	type served struct {
		cloud *tagging.Cloud
		enc   []byte
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // reader
			defer wg.Done()
			var held []served
			check := func() bool {
				for _, h := range held {
					enc, err := json.Marshal(h.cloud)
					if err != nil {
						errs <- err
						return false
					}
					if !bytes.Equal(enc, h.enc) {
						errs <- fmt.Errorf("served cloud changed after it was returned")
						return false
					}
				}
				return true
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					check()
					return
				default:
				}
				cloud, err := sys.TagCloud(optSets[(i+r)%len(optSets)])
				if err != nil {
					errs <- err
					return
				}
				enc, err := json.Marshal(cloud)
				if err != nil {
					errs <- err
					return
				}
				clouds.Add(1)
				held = append(held, served{cloud, enc})
				if len(held) > 12 {
					held = held[1:]
				}
				if !check() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := sys.Tags.Stats(); st.CacheMisses < rounds/2 || st.CliquesReused == 0 {
		t.Fatalf("too few cloud misses or no kept components reused: %+v", st)
	}
}
