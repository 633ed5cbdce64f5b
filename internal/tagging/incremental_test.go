package tagging

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/smr"
)

// cloudsEqual compares two clouds ignoring RecursionSteps (the incremental
// path only counts clique work it actually performed).
func cloudsEqual(t *testing.T, ctx string, got, want *Cloud) {
	t.Helper()
	g, w := *got, *want
	g.RecursionSteps, w.RecursionSteps = 0, 0
	if !reflect.DeepEqual(g.Cliques, w.Cliques) {
		t.Fatalf("%s: cliques diverge\nincremental = %v\nrebuild     = %v", ctx, g.Cliques, w.Cliques)
	}
	if !reflect.DeepEqual(g.Entries, w.Entries) {
		t.Fatalf("%s: entries diverge\nincremental = %+v\nrebuild     = %+v", ctx, g.Entries, w.Entries)
	}
}

// TestIncrementalCloudMatchesRebuild drives random page, annotation and tag
// churn through the pipeline and checks every served cloud is identical to
// one built from scratch over the same repository (BuildCloud over a fresh
// FetchTagData) — for several option sets, including annotation folding.
func TestIncrementalCloudMatchesRebuild(t *testing.T) {
	for _, includeAnnotations := range []bool{false, true} {
		t.Run(fmt.Sprintf("annotations=%v", includeAnnotations), func(t *testing.T) {
			repo, err := smr.New()
			if err != nil {
				t.Fatal(err)
			}
			p := NewPipeline(repo, includeAnnotations)
			rng := rand.New(rand.NewSource(5))
			tagPool := []string{"alpine", "wind", "snow", "field", "epfl", "wsl", "hydro", "melt"}

			titles := make([]string, 24)
			for i := range titles {
				titles[i] = fmt.Sprintf("Sensor:T%02d", i)
			}
			optSets := []CloudOptions{
				{UsePivot: true},
				{UsePivot: false, Threshold: 0.3},
				{UsePivot: true, MinFrequency: 2, MaxFontSize: 5},
			}
			for round := 0; round < 8; round++ {
				for i := 0; i < 6; i++ {
					title := titles[rng.Intn(len(titles))]
					switch rng.Intn(5) {
					case 0:
						repo.DeletePage(title)
					case 1, 2:
						text := fmt.Sprintf("[[measures::%s]] [[status::s%d]]",
							tagPool[rng.Intn(len(tagPool))], rng.Intn(3))
						if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
							t.Fatal(err)
						}
					default:
						if _, ok := repo.Wiki.Get(title); !ok {
							if _, err := repo.PutPage(title, "churn", "prose", ""); err != nil {
								t.Fatal(err)
							}
						}
						if err := repo.AddTag(title, tagPool[rng.Intn(len(tagPool))], "churn"); err != nil {
							t.Fatal(err)
						}
					}
				}
				for oi, opts := range optSets {
					got, err := p.Cloud(opts)
					if err != nil {
						t.Fatal(err)
					}
					td, err := p.FetchTagData()
					if err != nil {
						t.Fatal(err)
					}
					cloudsEqual(t, fmt.Sprintf("round %d opts %d", round, oi), got, BuildCloud(td, opts))
				}
			}
			st := p.Stats()
			if st.DeltaUpdates == 0 {
				t.Fatalf("no delta updates applied: %+v", st)
			}
			if st.FullRebuilds > 1 {
				t.Fatalf("unexpected full rebuilds for a live consumer: %+v", st)
			}
		})
	}
}

// TestIncrementalCloudAfterJournalTrim checks the bounded-window fallback:
// a pipeline whose position was trimmed away refetches from scratch and
// still serves the correct cloud.
func TestIncrementalCloudAfterJournalTrim(t *testing.T) {
	repo, p := pipelineFixture(t)
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	if err := repo.AddTag("Sensor:S3", "glacier", "tester"); err != nil {
		t.Fatal(err)
	}
	repo.Journal().TrimTo(repo.LastSeq())
	got, err := p.Cloud(CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	cloudsEqual(t, "post-trim", got, BuildCloud(td, CloudOptions{UsePivot: true}))
	if st := p.Stats(); st.FullRebuilds == 0 {
		t.Fatalf("expected a full rebuild after trim: %+v", st)
	}
}

// TestTagEntryBeforeDeleteRecreateInOneRun pins the coalescing corner that
// bit WAL-shipped replicas: a single journal run holding, in order, an
// upsert of a page, a tag assignment on it, its deletion, and a re-create.
// The upsert's re-read coalesces the later delete/re-create away, so the
// tag entry must be dropped too — applying it directly would resurrect the
// dead assignment in the mirror (the page exists again, so an existence
// check alone cannot catch it). Snapshot restore produces exactly this
// ordering: restored tags are journalled after restored pages, ahead of a
// replayed WAL tail that may delete and re-create the page.
func TestTagEntryBeforeDeleteRecreateInOneRun(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(repo, true)
	if _, err := repo.PutPage("Sensor:Stable", "t", "[[measures::wind]]", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	// One unconsumed run: put, tag, delete, re-create of the same title.
	if _, err := repo.PutPage("Sensor:X", "t", "[[measures::pressure]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := repo.AddTag("Sensor:X", "pressure", "t"); err != nil {
		t.Fatal(err)
	}
	if ok, err := repo.DeletePage("Sensor:X"); !ok || err != nil {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if _, err := repo.PutPage("Sensor:X", "t", "relocated, no annotations", ""); err != nil {
		t.Fatal(err)
	}
	got, err := p.Cloud(CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	cloudsEqual(t, "tag-before-delete-recreate", got, BuildCloud(td, CloudOptions{UsePivot: true}))
	for _, e := range got.Entries {
		if e.Tag == "pressure" {
			t.Fatalf("dead tag %q resurrected in the mirror: %+v", e.Tag, e)
		}
	}
}

// TestEmptyCloudsAgree pins the empty-vocabulary corner: neither path may
// report a clique for an empty tag set.
func TestEmptyCloudsAgree(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(repo, true)
	got, err := p.Cloud(CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	want := BuildCloud(td, CloudOptions{UsePivot: true})
	if len(got.Cliques) != 0 || len(want.Cliques) != 0 {
		t.Fatalf("empty vocabulary produced cliques: incremental %v, rebuild %v", got.Cliques, want.Cliques)
	}
	cloudsEqual(t, "empty", got, want)
}

// TestComponentCliqueReuse checks that editing one clique's tags leaves the
// other components' cached cliques untouched.
func TestComponentCliqueReuse(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint co-occurrence groups → two graph components.
	for i := 0; i < 3; i++ {
		title := fmt.Sprintf("Sensor:A%d", i)
		if _, err := repo.PutPage(title, "t", "prose", ""); err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{"a1", "a2", "a3"} {
			if err := repo.AddTag(title, tag, "t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		title := fmt.Sprintf("Sensor:B%d", i)
		if _, err := repo.PutPage(title, "t", "prose", ""); err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{"b1", "b2"} {
			if err := repo.AddTag(title, tag, "t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := NewPipeline(repo, false)
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	base := p.Stats()
	// Touch only the A group.
	if err := repo.AddTag("Sensor:A0", "a4", "t"); err != nil {
		t.Fatal(err)
	}
	got, err := p.Cloud(CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if reused := st.CliquesReused - base.CliquesReused; reused == 0 {
		t.Fatalf("untouched component was recomputed: %+v", st)
	}
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	cloudsEqual(t, "after edit", got, BuildCloud(td, CloudOptions{UsePivot: true}))
}
