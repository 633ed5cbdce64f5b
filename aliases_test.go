package sensormeta

import "testing"

// TestFacadeAliasesUsable drives the system exclusively through the root
// package's re-exported types — the path an external adopter takes.
func TestFacadeAliasesUsable(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PutPage("Sensor:A1", "alias", "[[measures::wind speed]] [[samplingRate::10]]", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PutPage("Sensor:A2", "alias", "[[measures::wind speed]] [[samplingRate::600]]", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Filters: []PropertyFilter{{Property: "samplingRate", Op: OpLessEq, Value: "60"}},
		SortBy:  SortTitle,
		Order:   OrderAsc,
	}
	var results []SearchResult
	results, err = sys.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Title != "Sensor:A1" {
		t.Fatalf("results = %+v", results)
	}

	var comps []Completion = sys.Autocomplete("Sensor:", 5)
	if len(comps) != 2 {
		t.Errorf("completions = %v", comps)
	}

	var recs []Recommendation = sys.Recommend([]string{"Sensor:A1"}, "", 3)
	if len(recs) != 1 || recs[0].Title != "Sensor:A2" {
		t.Errorf("recommendations = %+v", recs)
	}

	var cloud *Cloud
	cloud, err = sys.TagCloud(CloudOptions{UsePivot: true})
	if err != nil || len(cloud.Entries) == 0 {
		t.Fatalf("cloud = %+v, %v", cloud, err)
	}

	var combined *CombinedResult
	combined, err = sys.QueryCombined(CombinedQuery{
		SQL: "SELECT page FROM annotations WHERE property = 'measures'",
	})
	if err != nil || len(combined.Titles) != 2 {
		t.Fatalf("combined = %+v, %v", combined, err)
	}
}
