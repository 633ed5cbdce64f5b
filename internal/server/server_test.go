package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	sensormeta "repro"
	"repro/internal/workload"
)

// newTestServer builds a system with a small corpus behind an httptest
// server.
func newTestServer(t *testing.T) (*sensormeta.System, *httptest.Server) {
	t.Helper()
	sys, err := sensormeta.New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 4, Deployments: 8, Sensors: 40, Seed: 11, TagsPerSensor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	return sys, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func getJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

func TestHomePage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Advanced Sensor Metadata Search") {
		t.Error("title missing")
	}
	if !strings.Contains(body, "all namespaces") {
		t.Error("namespace drop-down missing")
	}
	// A query shows results and recommendations.
	code, body = get(t, ts.URL+"/?q=temperature")
	if code != http.StatusOK || !strings.Contains(body, "result(s)") {
		t.Errorf("query page: %d\n%s", code, body[:200])
	}
}

func TestSearchAPI(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Count   int `json:"count"`
		Results []struct {
			Title string  `json:"title"`
			Rank  float64 `json:"rank"`
		} `json:"results"`
	}
	getJSON(t, ts.URL+"/api/search?q=temperature&sort=rank", &out)
	if out.Count == 0 {
		t.Fatal("no results for temperature")
	}
	for _, r := range out.Results {
		if !strings.Contains(strings.ToLower(r.Title), "temp") {
			// May match prose too — only check the first few hold rank order.
			break
		}
	}
	// Rank-sorted: non-increasing.
	for i := 1; i < len(out.Results); i++ {
		if out.Results[i].Rank > out.Results[i-1].Rank {
			t.Error("rank order violated")
			break
		}
	}
}

func TestSearchAPIFiltersAndErrors(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/api/search?filter=measures:eq:temperature&namespace=Sensor", &out)
	if out.Count == 0 {
		t.Error("filter query found nothing")
	}
	for _, bad := range []string{
		"/api/search?sort=magic",
		"/api/search?order=upward",
		"/api/search?filter=oops",
		"/api/search?filter=a:zz:b",
		"/api/search?limit=x",
		"/api/search?offset=-2",
		"/api/search?alpha=x",
	} {
		if code, _ := get(t, ts.URL+bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
}

func TestAutocompleteAPI(t *testing.T) {
	_, ts := newTestServer(t)
	var out []struct {
		Text string `json:"Text"`
	}
	getJSON(t, ts.URL+"/api/autocomplete?prefix=Sensor:&k=5", &out)
	if len(out) == 0 || len(out) > 5 {
		t.Errorf("completions = %d", len(out))
	}
}

func TestPropertiesAndValuesAPI(t *testing.T) {
	_, ts := newTestServer(t)
	var props []string
	getJSON(t, ts.URL+"/api/properties", &props)
	if len(props) == 0 {
		t.Fatal("no properties")
	}
	var vals []string
	getJSON(t, ts.URL+"/api/values?property=measures", &vals)
	if len(vals) == 0 {
		t.Error("no values for measures")
	}
	if code, _ := get(t, ts.URL+"/api/values"); code != http.StatusBadRequest {
		t.Error("missing property parameter accepted")
	}
}

func TestRecommendAPI(t *testing.T) {
	sys, ts := newTestServer(t)
	seed := sys.Repo.Wiki.PagesInNamespace("Sensor")[0]
	var out []struct {
		Title string `json:"Title"`
	}
	getJSON(t, ts.URL+"/api/recommend?seed="+strings.ReplaceAll(seed, " ", "%20"), &out)
	if len(out) == 0 {
		t.Error("no recommendations")
	}
	if code, _ := get(t, ts.URL+"/api/recommend"); code != http.StatusBadRequest {
		t.Error("missing seed accepted")
	}
}

func TestTagCloudEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var cloud struct {
		Entries []struct {
			Tag      string `json:"Tag"`
			FontSize int    `json:"FontSize"`
		} `json:"Entries"`
	}
	getJSON(t, ts.URL+"/api/tagcloud", &cloud)
	if len(cloud.Entries) == 0 {
		t.Fatal("empty tag cloud")
	}
	for _, e := range cloud.Entries {
		if e.FontSize < 1 {
			t.Errorf("tag %s has font size %d", e.Tag, e.FontSize)
		}
	}
	code, body := get(t, ts.URL+"/viz/tagcloud.html")
	if code != http.StatusOK || !strings.Contains(body, `class="tagcloud"`) {
		t.Error("HTML tag cloud broken")
	}
	code, body = get(t, ts.URL+"/viz/taggraph.svg")
	if code != http.StatusOK || !strings.HasPrefix(body, "<svg") {
		t.Error("tag graph SVG broken")
	}
}

func TestVisualizationEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/viz/bar.svg?property=measures&namespace=Sensor",
		"/viz/pie.svg?property=operatedBy",
		"/viz/map.svg?q=temperature",
		"/viz/graph.svg",
		"/viz/hypergraph.svg",
	} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
			continue
		}
		if !strings.HasPrefix(body, "<svg") {
			t.Errorf("%s: not SVG", path)
		}
	}
	code, body := get(t, ts.URL+"/viz/graph.dot")
	if code != http.StatusOK || !strings.HasPrefix(body, "digraph") {
		t.Error("DOT endpoint broken")
	}
	if code, _ := get(t, ts.URL+"/viz/bar.svg"); code != http.StatusBadRequest {
		t.Error("bar chart without property accepted")
	}
}

func TestSQLAndSPARQLEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var sqlOut struct {
		Columns []string   `json:"Columns"`
		Rows    [][]string `json:"Rows"`
	}
	getJSON(t, ts.URL+"/api/sql?q="+urlQ("SELECT COUNT(*) FROM pages"), &sqlOut)
	if len(sqlOut.Rows) != 1 {
		t.Errorf("sql rows = %v", sqlOut.Rows)
	}
	var spOut struct {
		Rows []map[string]string `json:"rows"`
	}
	getJSON(t, ts.URL+"/api/sparql?q="+urlQ(
		`SELECT ?s WHERE { ?s <smr://prop/measures> "temperature" } LIMIT 3`), &spOut)
	if len(spOut.Rows) == 0 {
		t.Error("sparql returned nothing")
	}
	if code, _ := get(t, ts.URL+"/api/sql?q="+urlQ("DROP TABLE pages")); code != http.StatusBadRequest {
		t.Error("invalid SQL accepted")
	}
	if code, _ := get(t, ts.URL+"/api/sql"); code != http.StatusBadRequest {
		t.Error("missing sql q accepted")
	}
	if code, _ := get(t, ts.URL+"/api/sparql?q="+urlQ("garbage")); code != http.StatusBadRequest {
		t.Error("invalid SPARQL accepted")
	}
}

func urlQ(q string) string {
	r := strings.NewReplacer(" ", "%20", "?", "%3F", "<", "%3C", ">", "%3E", "\"", "%22", "{", "%7B", "}", "%7D", "*", "%2A", "#", "%23", "+", "%2B")
	return r.Replace(q)
}

func TestPutPageAndTagAPI(t *testing.T) {
	sys, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/pages", "application/json",
		strings.NewReader(`{"title":"Sensor:HTTP-01","author":"api","text":"[[measures::fog density]]"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put page status %d", resp.StatusCode)
	}
	if _, ok := sys.Repo.Wiki.Get("Sensor:HTTP-01"); !ok {
		t.Fatal("page not stored")
	}
	resp, err = http.Post(ts.URL+"/api/tags", "application/json",
		strings.NewReader(`{"page":"Sensor:HTTP-01","tag":"fog","author":"api"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tag status %d", resp.StatusCode)
	}
	// Refresh then search for the new page.
	resp, err = http.Post(ts.URL+"/api/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var out struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/api/search?q=fog", &out)
	if out.Count != 1 {
		t.Errorf("fog results = %d", out.Count)
	}
}

func TestBulkLoadEndpoint(t *testing.T) {
	sys, ts := newTestServer(t)
	before := sys.Repo.Wiki.Len()
	csv := "title,measures\nSensor:Bulk-01,ozone\nSensor:Bulk-02,ozone\n"
	resp, err := http.Post(ts.URL+"/bulkload?author=csvload", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("bulkload status %d: %s", resp.StatusCode, body)
	}
	var report struct {
		Loaded int `json:"Loaded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Loaded != 2 {
		t.Errorf("loaded = %d", report.Loaded)
	}
	if sys.Repo.Wiki.Len() != before+2 {
		t.Errorf("pages = %d, want %d", sys.Repo.Wiki.Len(), before+2)
	}
	// JSON variant.
	resp, err = http.Post(ts.URL+"/bulkload", "application/json",
		strings.NewReader(`[{"title":"Sensor:Bulk-03","measures":"co2"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("json bulkload status %d", resp.StatusCode)
	}
	// Bulk-loaded pages are immediately searchable (handler refreshes).
	var out struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/api/search?q=ozone", &out)
	if out.Count != 2 {
		t.Errorf("ozone results = %d", out.Count)
	}
}

func TestPageView(t *testing.T) {
	sys, ts := newTestServer(t)
	title := sys.Repo.Wiki.PagesInNamespace("Sensor")[0]
	code, body := get(t, ts.URL+"/page/"+strings.ReplaceAll(title, " ", "%20"))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Annotations") {
		t.Error("annotations section missing")
	}
	if code, body := get(t, ts.URL+"/page/No:Such"); code != http.StatusNotFound || envelopeCode(body) != "not_found" {
		t.Errorf("missing page: %d %s, want 404 not_found envelope", code, body)
	}
	// ACL enforcement on the page view.
	sys.Repo.ACL.SetAnonymousAccess(false)
	if code, _ := get(t, ts.URL+"/page/"+strings.ReplaceAll(title, " ", "%20")); code != http.StatusForbidden {
		t.Error("locked page not 403")
	}
	sys.Repo.ACL.SetAnonymousAccess(true)
}

func TestUnknownPathIs404(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := get(t, ts.URL+"/definitely/not/here"); code != http.StatusNotFound || envelopeCode(body) != "not_found" {
		t.Errorf("unknown path: %d %s, want 404 not_found envelope", code, body)
	}
}

func TestSearchFacetsParam(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Count   int                       `json:"count"`
		Matched int                       `json:"matched"`
		Facets  map[string]map[string]int `json:"facets"`
	}
	// Facets cover the full matching set even when limit truncates results.
	getJSON(t, ts.URL+"/api/search?namespace=Sensor&limit=3&facet=measures&facet=STATUS", &out)
	if out.Count != 3 {
		t.Errorf("count = %d, want 3", out.Count)
	}
	if out.Matched <= 3 {
		t.Errorf("matched = %d, want full namespace size", out.Matched)
	}
	total := 0
	for _, c := range out.Facets["measures"] {
		total += c
	}
	if total != out.Matched {
		t.Errorf("measures facet counts %d pages, matched %d", total, out.Matched)
	}
	// Mixed-case facet param is normalized at the boundary.
	if len(out.Facets["status"]) == 0 {
		t.Errorf("status facet missing: %v", out.Facets)
	}
}

func TestValuesWithCounts(t *testing.T) {
	_, ts := newTestServer(t)
	var out []struct {
		Value string `json:"value"`
		Count int    `json:"count"`
	}
	getJSON(t, ts.URL+"/api/values?property=MEASURES&counts=1&namespace=Sensor", &out)
	if len(out) == 0 {
		t.Fatal("no value counts")
	}
	for _, vc := range out {
		if vc.Count <= 0 {
			t.Errorf("value %q has count %d", vc.Value, vc.Count)
		}
	}
}

// TestPropertyCaseNormalization is the regression test for normalizing
// user-supplied property names once at the API boundary: mixed-case
// property parameters and filter properties must behave exactly like their
// lowercase forms everywhere they are accepted.
func TestPropertyCaseNormalization(t *testing.T) {
	_, ts := newTestServer(t)
	var lower, upper []string
	getJSON(t, ts.URL+"/api/values?property=measures", &lower)
	getJSON(t, ts.URL+"/api/values?property=MeAsUrEs", &upper)
	if len(lower) == 0 || !reflect.DeepEqual(lower, upper) {
		t.Errorf("values differ by case: %v vs %v", lower, upper)
	}
	var a, b struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/api/search?filter=measures:eq:temperature", &a)
	getJSON(t, ts.URL+"/api/search?filter=MEASURES:eq:temperature", &b)
	if a.Count == 0 || a.Count != b.Count {
		t.Errorf("filter counts differ by case: %d vs %d", a.Count, b.Count)
	}
	code, _ := get(t, ts.URL+"/viz/bar.svg?property=MEASURES")
	if code != http.StatusOK {
		t.Errorf("mixed-case chart property rejected: %d", code)
	}
}

func TestPropertiesByScore(t *testing.T) {
	_, ts := newTestServer(t)
	var plain, scored []string
	getJSON(t, ts.URL+"/api/properties", &plain)
	getJSON(t, ts.URL+"/api/properties?by=score", &scored)
	if len(plain) != len(scored) {
		t.Fatalf("by=score changed the property set: %d vs %d", len(plain), len(scored))
	}
	sortedA := append([]string(nil), plain...)
	sortedB := append([]string(nil), scored...)
	sort.Strings(sortedA)
	sort.Strings(sortedB)
	if !reflect.DeepEqual(sortedA, sortedB) {
		t.Errorf("property sets differ: %v vs %v", plain, scored)
	}
}

func TestAdminStats(t *testing.T) {
	sys, ts := newTestServer(t)
	var out struct {
		Refresh struct {
			JournalSeq      uint64 `json:"journalSeq"`
			EngineSeq       uint64 `json:"engineSeq"`
			RankerSeq       uint64 `json:"rankerSeq"`
			RecommenderSeq  uint64 `json:"recommenderSeq"`
			TaggingSeq      uint64 `json:"taggingSeq"`
			Refreshes       int    `json:"refreshes"`
			PagerankSkipped int    `json:"pagerankSkipped"`
			PagerankWarm    int    `json:"pagerankWarm"`
			PagerankCold    int    `json:"pagerankCold"`
			Recommender     struct {
				FullRebuilds int `json:"FullRebuilds"`
			} `json:"recommender"`
			Tagging struct {
				Seq uint64 `json:"Seq"`
			} `json:"tagging"`
		} `json:"refresh"`
		AutoRefreshMs int64 `json:"autoRefreshMs"`
	}
	getJSON(t, ts.URL+"/api/admin/stats", &out)
	if out.Refresh.Refreshes == 0 {
		t.Error("no refreshes recorded")
	}
	if out.Refresh.EngineSeq != out.Refresh.JournalSeq {
		t.Errorf("engine behind journal: %d vs %d", out.Refresh.EngineSeq, out.Refresh.JournalSeq)
	}
	if out.Refresh.RankerSeq != out.Refresh.JournalSeq || out.Refresh.RecommenderSeq != out.Refresh.JournalSeq || out.Refresh.TaggingSeq != out.Refresh.JournalSeq {
		t.Errorf("consumers behind journal: ranker=%d rec=%d tag=%d journal=%d",
			out.Refresh.RankerSeq, out.Refresh.RecommenderSeq, out.Refresh.TaggingSeq, out.Refresh.JournalSeq)
	}
	if out.Refresh.Recommender.FullRebuilds == 0 {
		t.Error("recommender rebuild not recorded")
	}
	// A metadata-only write + refresh must show up as a skipped PageRank.
	if _, err := sys.PutPage("Sensor:Stats-01", "t", "plain prose, no links", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	// New page = link-structure change → warm-started PageRank.
	warmBefore := out.Refresh.PagerankWarm
	getJSON(t, ts.URL+"/api/admin/stats", &out)
	if out.Refresh.PagerankWarm != warmBefore+1 {
		t.Errorf("warm starts = %d, want %d", out.Refresh.PagerankWarm, warmBefore+1)
	}
	if _, err := sys.PutPage("Sensor:Stats-01", "t", "plain prose edited, still no links", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	skippedBefore := out.Refresh.PagerankSkipped
	getJSON(t, ts.URL+"/api/admin/stats", &out)
	if out.Refresh.PagerankSkipped != skippedBefore+1 {
		t.Errorf("skips = %d, want %d", out.Refresh.PagerankSkipped, skippedBefore+1)
	}
}

// TestAutoRefreshDebounce checks the optional auto-refresh mode: a burst of
// writes produces one (debounced) refresh, and the written page becomes
// searchable without an explicit POST /api/refresh.
func TestAutoRefreshDebounce(t *testing.T) {
	sys, err := sensormeta.New()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{AutoRefresh: 20 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	refreshesBefore := sys.Stats().Refreshes
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/api/pages", "application/json",
			strings.NewReader(fmt.Sprintf(`{"title":"Sensor:Auto-%02d","author":"t","text":"[[measures::auto refresh probe]]"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out struct {
			Count int `json:"count"`
		}
		getJSON(t, ts.URL+"/api/search?q=auto+refresh+probe", &out)
		if out.Count == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-refresh never indexed the writes: count=%d", out.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The burst should have been debounced into very few refreshes, not one
	// per write.
	if n := sys.Stats().Refreshes - refreshesBefore; n > 3 {
		t.Errorf("burst of 5 writes caused %d refreshes", n)
	}
}

// TestSQLEndpointIsReadOnly pins the /api/sql contract: only SELECT
// parses, so a write or DDL statement — with or without explain=1 — is a
// 400 bad_request envelope and leaves every table as it was.
func TestSQLEndpointIsReadOnly(t *testing.T) {
	_, ts := newTestServer(t)
	counts := func() string {
		var out []string
		for _, table := range []string{"pages", "annotations", "links", "tags"} {
			var rs struct{ Rows [][]string }
			getJSON(t, ts.URL+"/api/sql?q="+urlQ("SELECT COUNT(*) FROM "+table), &rs)
			out = append(out, table+"="+rs.Rows[0][0])
		}
		return strings.Join(out, " ")
	}
	before := counts()
	for _, q := range []string{
		"DELETE FROM pages",
		"DROP TABLE pages",
		"INSERT INTO tags VALUES ('Sensor:X', 'evil', 'mallory', '2011-04-11T00:00:00Z')",
		"UPDATE pages SET revisions = 0",
		"CREATE TABLE extra (a INT)",
		"ALTER TABLE pages ADD COLUMN owner TEXT",
	} {
		for _, suffix := range []string{"", "&explain=1"} {
			code, body := get(t, ts.URL+"/api/sql?q="+urlQ(q)+suffix)
			var env struct {
				Error struct{ Code, Message string }
			}
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("%s%s: bad JSON %q", q, suffix, body)
			}
			if code != http.StatusBadRequest || env.Error.Code != "bad_request" || env.Error.Message == "" {
				t.Errorf("%s%s: status %d, envelope %+v", q, suffix, code, env.Error)
			}
		}
	}
	if after := counts(); after != before {
		t.Errorf("row counts changed: %s -> %s", before, after)
	}
}

// TestSPARQLNegativeLimitOffset holds both routes that run SPARQL to the
// 400 bad_request envelope for a negative LIMIT or OFFSET. A negative
// LIMIT once reached the evaluator, whose rows[:limit] panicked inside the
// handler, so the client saw a dropped connection instead of an answer.
func TestSPARQLNegativeLimitOffset(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tail := range []string{"LIMIT -1", "OFFSET -1", "LIMIT 2 OFFSET -3"} {
		q := "SELECT ?s WHERE { ?s ?p ?o } " + tail
		if code, body := get(t, ts.URL+"/api/sparql?q="+urlQ(q)); code != http.StatusBadRequest || envelopeCode(body) != "bad_request" {
			t.Errorf("/api/sparql %s: %d %s, want the 400 bad_request envelope", tail, code, body)
		}
		code, body := postJSON(t, ts.URL+"/api/v1/combined", map[string]interface{}{"sparql": q, "pagevar": "s"})
		if code != http.StatusBadRequest || envelopeCode(body) != "bad_request" {
			t.Errorf("/api/v1/combined %s: %d %s, want the 400 bad_request envelope", tail, code, body)
		}
	}
}

// TestHugeLimitMatchesUnlimited holds a limit (and limit+offset) past any
// buffer size to the unlimited answer, through the legacy and the v1
// route. The selector once preallocated limit+offset results, which
// crashed the process.
func TestHugeLimitMatchesUnlimited(t *testing.T) {
	sys, err := sensormeta.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 4, Deployments: 8, Sensors: 40, Seed: 11, TagsPerSensor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	for _, c := range []struct{ limit, rest string }{
		{"1152921504606846976", ""},
		{"9223372036854775807", "&offset=1"},
	} {
		_, want := get(t, ts.URL+"/api/search?q=temperature&limit=0"+c.rest)
		if code, got := get(t, ts.URL+"/api/search?q=temperature&limit="+c.limit+c.rest); code != http.StatusOK || got != want {
			t.Errorf("/api/search limit=%s%s: %d, body differs from limit=0: %.300s", c.limit, c.rest, code, got)
		}
	}
	v1 := func(limit int) (int, string) {
		return postJSON(t, ts.URL+"/api/v1/query", map[string]any{
			"query": json.RawMessage(`{"keyword":{"text":"temperature"}}`), "limit": limit,
		})
	}
	_, want := v1(0)
	for _, lim := range []int{1 << 60, math.MaxInt64} {
		if code, got := v1(lim); code != http.StatusOK || got != want {
			t.Errorf("/api/v1/query limit %d: %d, body differs from limit 0: %.300s", lim, code, got)
		}
	}
}

// TestMapTinyCellDrawsEveryMarker checks that a positive cell too small
// for the clustering grid draws one circle per marker, exactly as cell=0
// does, instead of collapsing every marker into one cluster.
func TestMapTinyCellDrawsEveryMarker(t *testing.T) {
	_, ts := newTestServer(t)
	code, want := get(t, ts.URL+"/viz/map.svg?namespace=Sensor&cell=0")
	if code != http.StatusOK {
		t.Fatalf("cell=0: status %d", code)
	}
	if n := strings.Count(want, "<circle"); n < 2 {
		t.Fatalf("cell=0 drew %d circles; the corpus should place several sensors", n)
	}
	for _, cell := range []string{"1e-300", "5e-324"} {
		code, got := get(t, ts.URL+"/viz/map.svg?namespace=Sensor&cell="+cell)
		if code != http.StatusOK || got != want {
			t.Errorf("cell=%s: status %d, %d circles; want the cell=0 map's %d",
				cell, code, strings.Count(got, "<circle"), strings.Count(want, "<circle"))
		}
	}
}

// TestSPARQLUnicodeEscapes: a literal spelled with SPARQL 1.1 UCHAR escapes
// over /api/sparql matches the same rows as its plain spelling, and a
// surrogate escape is the 400 bad_request envelope.
func TestSPARQLUnicodeEscapes(t *testing.T) {
	_, ts := newTestServer(t)
	rows := func(literal string) []map[string]string {
		var out struct {
			Rows []map[string]string `json:"rows"`
		}
		getJSON(t, ts.URL+"/api/sparql?q="+url.QueryEscape(
			`SELECT ?s WHERE { ?s <smr://prop/measures> "`+literal+`" } ORDER BY ?s`), &out)
		return out.Rows
	}
	plain := rows("temperature")
	if len(plain) == 0 {
		t.Fatal("the plain literal matched nothing")
	}
	for _, spelled := range []string{`\u0074emperature`, `temperatur\U00000065`} {
		if got := rows(spelled); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s matched %v, want %v", spelled, got, plain)
		}
	}
	q := `SELECT ?s WHERE { ?s <smr://prop/measures> "\uD800" }`
	if code, body := get(t, ts.URL+"/api/sparql?q="+url.QueryEscape(q)); code != http.StatusBadRequest || envelopeCode(body) != "bad_request" {
		t.Errorf("surrogate escape: %d %s, want the 400 bad_request envelope", code, body)
	}
}
