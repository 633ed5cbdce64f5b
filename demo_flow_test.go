package sensormeta

// This file replays the paper's Section-V demonstration script as one
// integration test: bulk-load metadata, register a page by hand (template
// idiom included), run advanced searches with autocomplete and drop-downs,
// rank, recommend, tag, build the cloud, and render every visualization.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/viz"
)

func TestDemonstrationWalkthrough(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}

	// Step 1 — bulk-loading interface (Fig. 6): CSV then JSON.
	csv := `title,locatedIn,operatedBy,latitude,longitude,category
Fieldsite:Wannengrat,,WSL,46.808,9.787,Fieldsites
Deployment:WAN-Wind,Fieldsite:Wannengrat,WSL,,,Deployments
Deployment:WAN-Snow,Fieldsite:Wannengrat,SLF,,,Deployments
`
	report, err := sys.Repo.LoadCSV(strings.NewReader(csv), "demo")
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded != 3 {
		t.Fatalf("CSV load = %+v", report)
	}
	jsonBody := `[
	  {"title":"Sensor:WAN-W-01","partOf":"Deployment:WAN-Wind","measures":"wind speed","samplingRate":10,"latitude":46.809,"longitude":9.788},
	  {"title":"Sensor:WAN-S-01","partOf":"Deployment:WAN-Snow","measures":"snow height","samplingRate":600,"latitude":46.807,"longitude":9.786}
	]`
	report, err = sys.Repo.LoadJSON(strings.NewReader(jsonBody), "demo")
	if err != nil || report.Loaded != 2 {
		t.Fatalf("JSON load = %+v, %v", report, err)
	}

	// Step 2 — hand-edited page via the template idiom.
	if _, err := sys.PutPage("Sensor:WAN-T-01", "demo",
		"{{SensorInfobox|partOf=Deployment:WAN-Snow|measures=temperature|samplingRate=60}} manual entry", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Step 3 — the advanced search interface (Fig. 7): autocomplete,
	// dynamic drop-downs, fielded query.
	if comps := sys.Autocomplete("Deployment:WAN", 5); len(comps) != 2 {
		t.Errorf("autocomplete = %v", comps)
	}
	props, err := sys.Repo.Properties()
	if err != nil || len(props) == 0 {
		t.Fatalf("properties = %v, %v", props, err)
	}
	vals, err := sys.Repo.PropertyValues("measures")
	if err != nil || len(vals) != 3 {
		t.Fatalf("measures values = %v, %v", vals, err)
	}
	results, err := sys.Search(search.Query{
		Filters: []search.PropertyFilter{
			{Property: "measures", Op: search.OpContains, Value: "wind"},
		},
	})
	if err != nil || len(results) != 1 || results[0].Title != "Sensor:WAN-W-01" {
		t.Fatalf("filter search = %+v, %v", results, err)
	}

	// Step 4 — ranking: the fieldsite everything references must top the
	// PageRank order.
	if top := sys.Ranker.TopPages(1); top[0] != "Fieldsite:Wannengrat" {
		t.Errorf("top page = %v", top)
	}

	// Step 5 — recommendations: the sibling deployment (shared locatedIn)
	// and the fieldsite (shared operatedBy) both surface.
	recs := sys.Recommend([]string{"Deployment:WAN-Wind"}, "", 5)
	found := map[string]bool{}
	for _, r := range recs {
		found[r.Title] = true
	}
	if !found["Deployment:WAN-Snow"] || !found["Fieldsite:Wannengrat"] {
		t.Fatalf("recommendations = %+v", recs)
	}

	// Step 6 — the combined query path (Fig. 1's Query Management).
	combined, err := sys.QueryCombined(core.CombinedQuery{
		SPARQL: `SELECT ?page WHERE { ?page <smr://prop/partof> ?d }`,
		SQL:    "SELECT page, numeric FROM annotations WHERE property = 'samplingrate'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(combined.Titles) != 3 {
		t.Fatalf("combined titles = %v", combined.Titles)
	}

	// Step 7 — tagging (Section IV): tags, cloud, Eq.-6 sizes.
	for _, tg := range []struct{ page, tag string }{
		{"Sensor:WAN-W-01", "wind"}, {"Sensor:WAN-W-01", "alpine"},
		{"Sensor:WAN-S-01", "snow"}, {"Sensor:WAN-S-01", "alpine"},
		{"Sensor:WAN-T-01", "alpine"},
	} {
		if err := sys.Repo.AddTag(tg.page, tg.tag, "demo"); err != nil {
			t.Fatal(err)
		}
	}
	cloud, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	var alpine *tagging.Entry
	for i := range cloud.Entries {
		if cloud.Entries[i].Tag == "alpine" {
			alpine = &cloud.Entries[i]
		}
	}
	if alpine == nil || alpine.Frequency != 3 {
		t.Fatalf("alpine entry = %+v", alpine)
	}
	for _, e := range cloud.Entries {
		if e.FontSize > alpine.FontSize {
			t.Errorf("%s (frequency %d) is drawn larger than alpine, the most frequent tag", e.Tag, e.Frequency)
		}
	}

	// Step 8 — visualizations render over live data.
	markers := sys.Markers(results)
	if len(markers) != 1 {
		t.Fatalf("markers = %v", markers)
	}
	if svg := viz.MapSVG(geo.ClusterMarkers(markers, 0.05), 400, 300); !strings.HasPrefix(svg, "<svg") {
		t.Error("map SVG broken")
	}
	if svg := viz.HypergraphSVG(sys.Repo.LinkGraph(), "Fieldsite:Wannengrat", 400); !strings.HasPrefix(svg, "<svg") {
		t.Error("hypergraph SVG broken")
	}
	if html := viz.TagCloudHTML(cloud); !strings.Contains(html, "alpine") {
		t.Error("tag cloud HTML broken")
	}
	if dot := viz.DOT(sys.Repo.LinkGraph(), "demo"); !strings.Contains(dot, "Fieldsite:Wannengrat") {
		t.Error("DOT broken")
	}

	// Step 9 — persistence round trip: snapshot and restore, search again.
	var snap strings.Builder
	if err := sys.Repo.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Repo.LoadSnapshot(strings.NewReader(snap.String())); err != nil {
		t.Fatal(err)
	}
	if err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	again, err := restored.Search(search.Query{Keywords: "manual"})
	if err != nil || len(again) != 1 || again[0].Title != "Sensor:WAN-T-01" {
		t.Fatalf("restored search = %+v, %v", again, err)
	}
}
