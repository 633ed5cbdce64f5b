package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestCombinedEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{
		"sparql": "SELECT ?page WHERE { ?page <smr://prop/status> \"active\" }",
		"sql": "SELECT page, numeric FROM annotations WHERE property = 'samplingrate'",
		"limit": 5
	}`
	resp, err := http.Post(ts.URL+"/api/combined", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Hint    string     `json:"hint"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) == 0 || len(out.Rows) > 5 {
		t.Errorf("rows = %d", len(out.Rows))
	}
	if out.Columns[0] != "page" || out.Columns[1] != "sql.numeric" {
		t.Errorf("columns = %v", out.Columns)
	}
	// Sensors carry coordinates: the manager should route to the map.
	if out.Hint != "map" {
		t.Errorf("hint = %s, want map", out.Hint)
	}
}

func TestCombinedEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []string{
		`{}`,                       // no parts
		`{"sql": "garbage"}`,       // bad SQL
		`{"sparql": "not sparql"}`, // bad SPARQL
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/api/combined", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}
