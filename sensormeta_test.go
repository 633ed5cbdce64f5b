package sensormeta

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pagerank"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/workload"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func seededSystem(t *testing.T) *System {
	sys := newSystem(t)
	if _, err := workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 3, Deployments: 6, Sensors: 30, Seed: 2, TagsPerSensor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEndToEndFlow(t *testing.T) {
	sys := newSystem(t)
	// Write pages through the facade.
	pages := []struct{ title, text string }{
		{"Fieldsite:Davos", "[[altitude::1560]] [[latitude::46.8]] [[longitude::9.83]]"},
		{"Deployment:D1", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]]"},
		{"Sensor:W1", "[[partOf::Deployment:D1]] [[measures::wind speed]] [[latitude::46.81]] [[longitude::9.84]] windy"},
		{"Sensor:T1", "[[partOf::Deployment:D1]] [[measures::temperature]] [[latitude::46.79]] [[longitude::9.82]]"},
	}
	for _, p := range pages {
		if _, err := sys.PutPage(p.title, "e2e", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Keyword search.
	rs, err := sys.Search(search.Query{Keywords: "windy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Title != "Sensor:W1" {
		t.Fatalf("results = %+v", rs)
	}
	// The fieldsite hub outranks leaves.
	if sys.Ranker.Score("Fieldsite:Davos") <= sys.Ranker.Score("Sensor:W1") {
		t.Error("hub not ranked above sensor")
	}
	// Recommendations connect the two sensors through shared annotations.
	recs := sys.Recommend([]string{"Sensor:W1"}, "", 3)
	found := false
	for _, r := range recs {
		if r.Title == "Sensor:T1" {
			found = true
		}
	}
	if !found {
		t.Errorf("T1 not recommended from W1: %+v", recs)
	}
	// SQL and SPARQL agree on the annotation count for W1.
	sqlRes, err := sys.QuerySQL("SELECT COUNT(*) FROM annotations WHERE page = 'Sensor:W1'")
	if err != nil {
		t.Fatal(err)
	}
	spRes, err := sys.QuerySPARQL(`SELECT ?p ?o WHERE { <smr://page/Sensor:W1> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	// W1 carries partOf, measures, latitude, longitude.
	if sqlRes.Rows[0][0] != "4" || len(spRes.Rows) != 4 {
		t.Errorf("SQL says %s annotations, SPARQL %d, want 4", sqlRes.Rows[0][0], len(spRes.Rows))
	}
	// Markers from positioned results.
	all, _ := sys.Search(search.Query{})
	markers := sys.Markers(all)
	if len(markers) != 3 { // fieldsite + 2 sensors have coordinates
		t.Errorf("markers = %d, want 3", len(markers))
	}
}

func TestSearchFused(t *testing.T) {
	sys := seededSystem(t)
	alpha := 0.0
	rs, err := sys.Search(search.Query{Keywords: "sensor", Mode: search.ModeAny, Alpha: &alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 2 {
		t.Fatalf("fixture too small: %d results", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Rank > rs[i-1].Rank {
			t.Error("alpha=0 fusion not rank-ordered")
			break
		}
	}
}

func TestAutocompleteThroughFacade(t *testing.T) {
	sys := seededSystem(t)
	got := sys.Autocomplete("Deployment:", 5)
	if len(got) == 0 {
		t.Error("no deployment completions")
	}
	for _, c := range got {
		if !strings.HasPrefix(c.Text, "Deployment:") {
			t.Errorf("completion %q does not match prefix", c.Text)
		}
	}
}

func TestTagCloudThroughFacade(t *testing.T) {
	sys := seededSystem(t)
	cloud, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cloud.Entries) == 0 {
		t.Fatal("empty cloud")
	}
	for _, e := range cloud.Entries {
		if e.FontSize < 1 || e.FontSize > 7 {
			t.Errorf("font size %d outside [1,7]", e.FontSize)
		}
	}
}

func TestCompareSolversOnLiveGraph(t *testing.T) {
	sys := seededSystem(t)
	results, err := pagerank.Compare(sys.Repo.LinkGraph(), pagerank.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("solvers = %d", len(results))
	}
	ref := results[0].Scores
	for _, r := range results {
		if !r.Converged {
			t.Errorf("%s did not converge", r.Method)
		}
		var diff float64
		for i := range ref {
			diff += math.Abs(ref[i] - r.Scores[i])
		}
		if diff > 1e-6 {
			t.Errorf("%s deviates by %v in L1", r.Method, diff)
		}
	}
}

func TestMarkersSkipUnpositionedAndInvalid(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.PutPage("Sensor:NoPos", "t", "[[measures::x]]", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PutPage("Sensor:BadPos", "t", "[[latitude::999]] [[longitude::12]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	rs, _ := sys.Search(search.Query{})
	if got := sys.Markers(rs); len(got) != 0 {
		t.Errorf("markers = %+v, want none", got)
	}
}
