package sensormeta

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/recommend"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/tagging"
	"repro/internal/wal"
	"repro/internal/workload"
)

// buildDurableCorpus opens a durable system in dir, loads a corpus, applies
// tagged churn, and snapshots partway so a later Open exercises snapshot +
// WAL-tail restore.
func buildDurableCorpus(t *testing.T, dir string, sensors int) {
	t.Helper()
	sys, err := Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = sensors
	opts.Deployments = 12
	opts.TagsPerSensor = 2
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Snapshot here: everything after this lives only in the log tail.
	if _, err := sys.Repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	pages := sys.Repo.Wiki.PagesInNamespace("Sensor")
	for i := 0; i < 25; i++ {
		title := pages[rng.Intn(len(pages))]
		switch rng.Intn(5) {
		case 0:
			sys.Repo.DeletePage(title)
		case 1:
			if _, ok := sys.Repo.Wiki.Get(title); ok {
				if err := sys.Repo.AddTag(title, "tail-churn", "w"); err != nil {
					t.Fatal(err)
				}
			}
		default:
			text := fmt.Sprintf("Relocated.\n[[partOf::Deployment:Tail-%d]]\n[[calibrated::%d]]\n", rng.Intn(3), rng.Intn(100))
			if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColdStartFromSnapshotAndTail is the acceptance test for the durable
// journal: a system opened against a data directory must come up fully
// refreshed with NO full-rebuild path taken — every consumer catches up by
// applying the restored journal — and must answer every query exactly like
// a from-scratch rebuild over the same repository.
func TestColdStartFromSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	buildDurableCorpus(t, dir, 120)

	cold, err := Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	// No rebuild fallbacks anywhere on the cold-start path.
	st := cold.Stats()
	if st.FullRefreshes != 0 {
		t.Fatalf("cold start ran RefreshFull %d times", st.FullRefreshes)
	}
	if st.EngineRebuilds != 0 {
		t.Fatalf("cold start fell back to Engine.Rebuild %d times", st.EngineRebuilds)
	}
	if st.EngineSeq != st.JournalSeq || st.JournalSeq == 0 {
		t.Fatalf("cold start not caught up: %+v", st)
	}
	if !st.WAL.Enabled || st.WAL.SnapshotSeq == 0 || st.WAL.LastSeq < st.WAL.SnapshotSeq {
		t.Fatalf("WAL stats after cold start: %+v", st.WAL)
	}

	// Reference: the pre-incremental from-scratch path over the same
	// repository (satellite: snapshot round-trip equivalence).
	full := &System{Repo: cold.Repo}
	full.Engine = search.NewEngine(cold.Repo)
	full.Tags = tagging.NewPipeline(cold.Repo, true)
	full.QueryManager = core.NewManager(cold.Repo, full.Engine)
	if err := full.RefreshFull(); err != nil {
		t.Fatal(err)
	}

	queries := []search.Query{
		{Keywords: "temperature"},
		{Keywords: "sensor wind", Mode: search.ModeAny, Limit: 10},
		{Namespace: "Sensor", SortBy: search.SortTitle, Limit: 15, Offset: 5},
		{Filters: []search.PropertyFilter{{Property: "calibrated", Op: search.OpGreatEq, Value: "0"}}, SortBy: search.SortTitle},
		{Keywords: "deployment", SortBy: search.SortRank},
	}
	for qi, q := range queries {
		got, err := cold.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results cold, %d full", qi, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			// Cold and rebuilt solves both run the cold solver over the
			// same graph; tolerate only solver-level noise.
			if math.Abs(g.Rank-w.Rank) > 1e-9 {
				t.Fatalf("query %d result %d: rank %v vs %v", qi, i, g.Rank, w.Rank)
			}
			g.Rank, w.Rank = 0, 0
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("query %d result %d:\ncold = %+v\nfull = %+v", qi, i, g, w)
			}
		}
	}
	// Facet counts over the whole matching set.
	facetOpts := search.ExecOptions{Facets: []string{"measures", "partof"}, CountOnly: true}
	for _, expr := range []query.Expr{query.All{}, query.Keyword{Text: "temperature"}} {
		got, err := cold.Query(expr, facetOpts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Query(expr, facetOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matched != want.Matched || !reflect.DeepEqual(got.Facets, want.Facets) {
			t.Fatalf("facets diverge: %v/%d vs %v/%d", got.Facets, got.Matched, want.Facets, want.Matched)
		}
	}
	// Autocomplete.
	for _, prefix := range []string{"Sensor:", "temp", "Deployment:"} {
		if got, want := cold.Autocomplete(prefix, 10), full.Autocomplete(prefix, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("autocomplete %q: %+v vs %+v", prefix, got, want)
		}
	}
	// Recommendations against a from-scratch recommender over the cold
	// system's own PageRank vector (bit-identical summation contract).
	rebuilt := recommend.New(cold.Repo, cold.Ranker.Scores())
	seeds := cold.Repo.Wiki.PagesInNamespace("Sensor")[:3]
	if got, want := cold.Recommender.Recommend(seeds, "", 10), rebuilt.Recommend(seeds, "", 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("recommendations diverge:\ncold    = %+v\nrebuild = %+v", got, want)
	}
	if got, want := cold.Recommender.TopProperties(10), rebuilt.TopProperties(10); !reflect.DeepEqual(got, want) {
		t.Fatalf("top properties diverge: %v vs %v", got, want)
	}
	// Tag cloud against a from-scratch pipeline run.
	got, err := cold.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh := tagging.NewPipeline(cold.Repo, true)
	td, err := fresh.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	want := tagging.BuildCloud(td, tagging.CloudOptions{UsePivot: true})
	g, w := *got, *want
	g.RecursionSteps, w.RecursionSteps = 0, 0
	if !reflect.DeepEqual(g.Cliques, w.Cliques) || !reflect.DeepEqual(g.Entries, w.Entries) {
		t.Fatal("tag cloud diverges from rebuild after cold start")
	}
}

// benchChurn applies n deterministic edits (and a sprinkle of tags) to the
// repository — the "1% tail" of the cold-start benchmark. Both benchmark
// directories replay the same script.
func benchChurn(tb testing.TB, repo *smr.Repository, n int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	pages := repo.Wiki.PagesInNamespace("Sensor")
	for i := 0; i < n; i++ {
		title := pages[rng.Intn(len(pages))]
		if i%10 == 9 {
			if err := repo.AddTag(title, "tail", "w"); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		text := fmt.Sprintf("Recalibrated.\n[[partOf::Deployment:Tail-%d]]\n[[calibrated::%d]]\n", rng.Intn(4), rng.Intn(1000))
		if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkColdStart compares the two ways a restarted replica can become
// query-ready over a ~10k-page corpus with a 1% post-snapshot tail:
//
//   - snapshot_tail: restore the newest snapshot, replay only the WAL
//     tail, then one incremental Refresh (no RefreshFull/Engine.Rebuild);
//   - full_replay_rebuild: replay the entire write history from the log
//     and rebuild every derived structure from scratch — what a replica
//     without snapshots (or the pre-WAL system re-importing the corpus)
//     has to do.
func BenchmarkColdStart(b *testing.B) {
	opts := smr.DurableOptions{Fsync: wal.SyncNever}
	fullDir := b.TempDir()
	repo, err := smr.Open(fullDir, opts)
	if err != nil {
		b.Fatal(err)
	}
	corpus := workload.DefaultCorpus()
	corpus.Sensors = 9900
	corpus.Deployments = 90
	corpus.TagsPerSensor = 1
	if _, err := workload.BuildCorpus(repo, corpus); err != nil {
		b.Fatal(err)
	}
	pageCount := repo.Wiki.Len()
	if err := repo.Close(); err != nil {
		b.Fatal(err)
	}
	// Same history in a second dir, snapshotted before the tail churn.
	snapDir := b.TempDir()
	segs, err := filepath.Glob(filepath.Join(fullDir, "wal-*.seg"))
	if err != nil {
		b.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snapDir, filepath.Base(seg)), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	churnN := pageCount / 100
	snapRepo, err := smr.Open(snapDir, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := snapRepo.Snapshot(); err != nil {
		b.Fatal(err)
	}
	benchChurn(b, snapRepo, churnN)
	if err := snapRepo.Close(); err != nil {
		b.Fatal(err)
	}
	fullRepo, err := smr.Open(fullDir, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchChurn(b, fullRepo, churnN)
	if err := fullRepo.Close(); err != nil {
		b.Fatal(err)
	}
	b.Logf("corpus: %d pages, %d-mutation tail", pageCount, churnN)

	b.Run("snapshot_tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := Open(snapDir, opts)
			if err != nil {
				b.Fatal(err)
			}
			st := sys.Stats()
			if st.FullRefreshes != 0 || st.EngineRebuilds != 0 {
				b.Fatalf("cold start rebuilt: %+v", st)
			}
			if sys.Repo.Wiki.Len() != pageCount {
				b.Fatalf("restored %d pages, want %d", sys.Repo.Wiki.Len(), pageCount)
			}
			sys.Close()
		}
	})
	b.Run("full_replay_rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo, err := smr.Open(fullDir, opts)
			if err != nil {
				b.Fatal(err)
			}
			sys := &System{Repo: repo}
			sys.Engine = search.NewEngine(repo)
			sys.Tags = tagging.NewPipeline(repo, true)
			sys.QueryManager = core.NewManager(repo, sys.Engine)
			if err := sys.RefreshFull(); err != nil {
				b.Fatal(err)
			}
			if repo.Wiki.Len() != pageCount {
				b.Fatalf("restored %d pages, want %d", repo.Wiki.Len(), pageCount)
			}
			repo.Close()
		}
	})
}

// TestColdStartMatchesLiveSystem closes a live system mid-flight and checks
// the reopened replica answers like the one that never went down.
func TestColdStartMatchesLiveSystem(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = 80
	opts.Deployments = 8
	opts.TagsPerSensor = 2
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	q := search.Query{Keywords: "temperature", SortBy: search.SortTitle}
	live, err := sys.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	liveCloud, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	cold, err := Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	got, err := cold.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("%d results cold, %d live", len(got), len(live))
	}
	for i := range got {
		g, w := got[i], live[i]
		if math.Abs(g.Rank-w.Rank) > 1e-6 {
			t.Fatalf("result %d: rank %v vs %v", i, g.Rank, w.Rank)
		}
		g.Rank, w.Rank = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("result %d:\ncold = %+v\nlive = %+v", i, g, w)
		}
	}
	coldCloud, err := cold.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	gc, wc := *coldCloud, *liveCloud
	gc.RecursionSteps, wc.RecursionSteps = 0, 0
	if !reflect.DeepEqual(gc.Cliques, wc.Cliques) || !reflect.DeepEqual(gc.Entries, wc.Entries) {
		t.Fatal("cold tag cloud diverges from the live system's")
	}
}
