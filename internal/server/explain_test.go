package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/explain"
)

// TestSQLExplainAPI pins /api/sql?explain=1: the normal result shape plus a
// plan tree, and no plan key at all without the parameter.
func TestSQLExplainAPI(t *testing.T) {
	_, ts := newTestServer(t)
	sql := "q=" + strings.ReplaceAll("SELECT page FROM annotations WHERE property = 'measures'", " ", "+")
	var out struct {
		Columns []string      `json:"Columns"`
		Rows    [][]string    `json:"Rows"`
		Plan    *explain.Node `json:"plan"`
	}
	getJSON(t, ts.URL+"/api/sql?"+sql+"&explain=1", &out)
	if len(out.Rows) == 0 {
		t.Fatal("no rows")
	}
	if out.Plan == nil {
		t.Fatal("explain=1 returned no plan")
	}
	rendered := out.Plan.String()
	if !strings.Contains(rendered, "IndexScan") {
		t.Errorf("property predicate should use the index:\n%s", rendered)
	}
	if !strings.Contains(rendered, "est=") || !strings.Contains(rendered, "act=") {
		t.Errorf("plan lacks est/act:\n%s", rendered)
	}

	_, body := get(t, ts.URL+"/api/sql?"+sql)
	if strings.Contains(body, `"plan"`) {
		t.Error("plan present without explain=1")
	}
}

// TestV1QueryExplainAPI pins POST /api/v1/query?explain=1: a Search-rooted
// plan with a strategy leaf; the body shape is otherwise
// unchanged, and the plan is absent without the parameter.
func TestV1QueryExplainAPI(t *testing.T) {
	_, ts := newTestServer(t)
	req := map[string]interface{}{
		"query": map[string]interface{}{"keyword": map[string]interface{}{"text": "temperature"}},
		"limit": 5,
	}
	code, body := postJSON(t, ts.URL+"/api/v1/query?explain=1", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Matched int           `json:"matched"`
		Plan    *explain.Node `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatalf("explain=1 returned no plan: %s", body)
	}
	if out.Plan.Op != "Search" {
		t.Errorf("root op = %q", out.Plan.Op)
	}
	if out.Plan.Act != out.Matched {
		t.Errorf("plan act = %d, matched = %d", out.Plan.Act, out.Matched)
	}

	code, body = postJSON(t, ts.URL+"/api/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if strings.Contains(body, `"plan"`) {
		t.Error("plan present without explain=1")
	}
}

// TestV1CombinedExplainAPI pins POST /api/v1/combined?explain=1: the join
// root with one node per part, the SQL part embedding the relational
// planner's subtree.
func TestV1CombinedExplainAPI(t *testing.T) {
	_, ts := newTestServer(t)
	req := map[string]interface{}{
		"sql":      "SELECT page FROM annotations WHERE property = 'measures'",
		"keywords": "temperature",
	}
	code, body := postJSON(t, ts.URL+"/api/v1/combined?explain=1", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Rows [][]string    `json:"rows"`
		Plan *explain.Node `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatalf("explain=1 returned no plan: %s", body)
	}
	if out.Plan.Op != "CombinedJoin" {
		t.Errorf("root op = %q", out.Plan.Op)
	}
	rendered := out.Plan.String()
	for _, want := range []string{"SQLPart", "KeywordPart"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan lacks %s:\n%s", want, rendered)
		}
	}

	code, body = postJSON(t, ts.URL+"/api/v1/combined", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if strings.Contains(body, `"plan"`) {
		t.Error("plan present without explain=1")
	}
}

// TestAdminStatsPlannerBlock pins the planner block of /api/admin/stats:
// after a few SQL queries the counters move and the estimate-error
// quantiles are populated.
func TestAdminStatsPlannerBlock(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		code, body := get(t, ts.URL+"/api/sql?q="+strings.ReplaceAll(
			"SELECT page FROM annotations WHERE property = 'measures'", " ", "+"))
		if code != http.StatusOK {
			t.Fatalf("sql: %d %s", code, body)
		}
	}
	var out struct {
		Planner struct {
			PlansBuilt      int     `json:"plansBuilt"`
			IndexScans      int     `json:"indexScans"`
			EstimateSamples int     `json:"estimateSamples"`
			P50             float64 `json:"estimateErrorP50"`
		} `json:"planner"`
	}
	getJSON(t, ts.URL+"/api/admin/stats", &out)
	if out.Planner.PlansBuilt < 3 {
		t.Errorf("plansBuilt = %d, want >= 3", out.Planner.PlansBuilt)
	}
	if out.Planner.IndexScans == 0 {
		t.Error("indexScans = 0 after indexed queries")
	}
	if out.Planner.EstimateSamples == 0 {
		t.Error("no estimate samples recorded")
	}
	if out.Planner.P50 < 1 {
		t.Errorf("estimateErrorP50 = %v, want >= 1", out.Planner.P50)
	}
}
