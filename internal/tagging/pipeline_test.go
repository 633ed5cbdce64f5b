package tagging

import (
	"fmt"
	"testing"

	"repro/internal/smr"
)

func pipelineFixture(t *testing.T) (*smr.Repository, *Pipeline) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ title, text string }{
		{"Sensor:S1", "[[measures::wind]]"},
		{"Sensor:S2", "[[measures::wind]]"},
		{"Sensor:S3", "[[measures::snow]]"},
	} {
		if _, err := repo.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []struct{ page, tag string }{
		{"Sensor:S1", "alpine"}, {"Sensor:S2", "alpine"},
		{"Sensor:S1", "wind"}, {"Sensor:S2", "wind"},
		{"Sensor:S3", "snow"},
	} {
		if err := repo.AddTag(tag.page, tag.tag, "tester"); err != nil {
			t.Fatal(err)
		}
	}
	return repo, NewPipeline(repo, false)
}

func TestFetchTagData(t *testing.T) {
	_, p := pipelineFixture(t)
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	if td.Frequency("alpine") != 2 || td.Frequency("snow") != 1 {
		t.Errorf("frequencies: alpine=%d snow=%d", td.Frequency("alpine"), td.Frequency("snow"))
	}
	// alpine and wind live on the same two pages: cosine 1.
	if got := td.CosineSimilarity("alpine", "wind"); got != 1 {
		t.Errorf("alpine~wind = %v", got)
	}
}

func TestFetchTagDataWithAnnotations(t *testing.T) {
	repo, _ := pipelineFixture(t)
	p := NewPipeline(repo, true)
	td, err := p.FetchTagData()
	if err != nil {
		t.Fatal(err)
	}
	// Annotation values "wind" (2 pages) merge with user tag "wind"
	// (2 pages, same pages) → frequency stays 2; "snow" merges likewise.
	if td.Frequency("wind") != 2 {
		t.Errorf("wind frequency with annotations = %d", td.Frequency("wind"))
	}
}

func TestPipelineCache(t *testing.T) {
	repo, p := pipelineFixture(t)
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	hits, misses := p.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	// New tag data invalidates.
	if err := repo.AddTag("Sensor:S3", "fresh", "tester"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cloud(CloudOptions{UsePivot: true}); err != nil {
		t.Fatal(err)
	}
	hits, misses = p.CacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("after invalidation: %d hits, %d misses; want 1, 2", hits, misses)
	}
	// Different options invalidate too.
	if _, err := p.Cloud(CloudOptions{UsePivot: true, MaxFontSize: 9}); err != nil {
		t.Fatal(err)
	}
	_, misses = p.CacheStats()
	if misses != 3 {
		t.Errorf("option change did not invalidate: misses = %d", misses)
	}
}

// TestPipelineCacheDisabled checks the cached pipeline against its
// cache-disabled reference, BuildCloud(FetchTagData()), which recomputes
// the full Parser → Matrix → Graph → Clique chain on every call.
func TestPipelineCacheDisabled(t *testing.T) {
	repo, p := pipelineFixture(t)
	opts := CloudOptions{UsePivot: true}
	for i := 0; i < 3; i++ {
		if i == 2 {
			if err := repo.AddTag("Sensor:S3", "alpine", "tester"); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Cloud(opts)
		if err != nil {
			t.Fatal(err)
		}
		td, err := p.FetchTagData()
		if err != nil {
			t.Fatal(err)
		}
		cloudsEqual(t, fmt.Sprintf("call %d", i), got, BuildCloud(td, opts))
	}
	if hits, misses := p.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits, %d misses; want 1, 2", hits, misses)
	}
}

func TestPipelineCloudContents(t *testing.T) {
	_, p := pipelineFixture(t)
	cloud, err := p.Cloud(CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cloud.Entries) != 3 {
		t.Fatalf("entries = %+v", cloud.Entries)
	}
	// alpine & wind form a clique (cosine 1 > 0.5).
	foundPair := false
	for _, c := range cloud.Cliques {
		if len(c) == 2 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Errorf("expected an alpine+wind clique, got %v", cloud.Cliques)
	}
}
