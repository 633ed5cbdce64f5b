package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/search"
)

func postJSON(t *testing.T, url string, body interface{}) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.String()
}

// translateLegacyURL converts a legacy /api/search query string into the
// equivalent /api/v1/query request body, via the same translation the
// engine itself applies (search.LegacyExpr).
func translateLegacyURL(t *testing.T, rawQuery string) map[string]interface{} {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/api/search?"+rawQuery, nil)
	p, verr := requestParams(searchRoute(t).Params, r)
	if verr != nil {
		t.Fatalf("params(%s): %v", rawQuery, verr)
	}
	q, err := parseQuery(p)
	if err != nil {
		t.Fatalf("parseQuery(%s): %v", rawQuery, err)
	}
	expr, err := search.LegacyExpr(q)
	if err != nil {
		t.Fatalf("LegacyExpr(%s): %v", rawQuery, err)
	}
	raw, err := query.Marshal(expr)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]interface{}{
		"query": json.RawMessage(raw),
		"sort":  string(q.SortBy),
		"user":  q.User,
	}
	if q.Order != search.OrderDefault {
		body["order"] = string(q.Order)
	}
	if q.Alpha != nil {
		// alpha defines the fused order on both surfaces; the legacy route
		// drops sort/order when fusing, so the translation must too.
		body["alpha"] = *q.Alpha
		delete(body, "sort")
		delete(body, "order")
	}
	if q.Limit > 0 {
		body["limit"] = q.Limit
	}
	if strings.TrimSpace(q.Keywords) != "" {
		body["snippets"] = true
	}
	if facets := p.strs("facet"); len(facets) > 0 {
		body["facets"] = facets
	}
	return body
}

// searchRoute returns the /api/search entry of the route table.
func searchRoute(t *testing.T) route {
	t.Helper()
	for _, rt := range routes {
		if rt.Pattern == "/api/search" {
			return rt
		}
	}
	t.Fatal("no /api/search route")
	return route{}
}

// TestV1GoldenEquivalence is the golden test of the API redesign: for a
// spread of legacy GET requests, the legacy response and the response of
// the translated /api/v1/query request carry byte-identical result arrays
// (and identical facet objects), because both run through one executor.
func TestV1GoldenEquivalence(t *testing.T) {
	_, ts := newTestServer(t)
	legacyURLs := []string{
		"q=temperature",
		"q=temperature&sort=rank",
		"q=temperature+sensor&mode=any&limit=5",
		"q=%22wind+speed%22&sort=title",
		"filter=measures:eq:temperature",
		"filter=measures:eq:temperature&namespace=Sensor&sort=title&order=desc",
		"filter=samplingRate:ge:10&filter=samplingRate:le:40&sort=title&limit=8",
		"namespace=Deployment&sort=title",
		"category=Sensors&limit=10&sort=title",
		"q=sensor&facet=measures&facet=status&limit=4",
		"filter=measures:contains:speed&sort=rank&limit=3",
		"q=temperature&alpha=0.3",
		"q=temperature+sensor&mode=any&alpha=0.7&limit=6",
		"q=wind&alpha=0&facet=measures",
		"filter=measures:eq:temperature&alpha=0.5&limit=5",
		"q=sensor&alpha=1&sort=rank", // legacy allowed sort alongside alpha; fusion wins
		"",                           // match-all
	}
	type envelope struct {
		Count   int             `json:"count"`
		Matched int             `json:"matched"`
		Results json.RawMessage `json:"results"`
		Facets  json.RawMessage `json:"facets"`
	}
	for _, rawQuery := range legacyURLs {
		var legacy envelope
		code, legacyBody := get(t, ts.URL+"/api/search?"+rawQuery)
		if code != http.StatusOK {
			t.Fatalf("legacy GET %q: status %d: %s", rawQuery, code, legacyBody)
		}
		if err := json.Unmarshal([]byte(legacyBody), &legacy); err != nil {
			t.Fatal(err)
		}
		body := translateLegacyURL(t, rawQuery)
		code, v1Body := postJSON(t, ts.URL+"/api/v1/query", body)
		if code != http.StatusOK {
			t.Fatalf("v1 POST for %q: status %d: %s", rawQuery, code, v1Body)
		}
		var v1 envelope
		if err := json.Unmarshal([]byte(v1Body), &v1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Results, v1.Results) {
			t.Errorf("results diverge for %q:\n  legacy %s\n  v1     %s",
				rawQuery, legacy.Results, v1.Results)
		}
		if legacy.Count != v1.Count {
			t.Errorf("count diverges for %q: %d vs %d", rawQuery, legacy.Count, v1.Count)
		}
		if strings.Contains(rawQuery, "facet=") {
			if !bytes.Equal(legacy.Facets, v1.Facets) {
				t.Errorf("facets diverge for %q:\n  legacy %s\n  v1     %s",
					rawQuery, legacy.Facets, v1.Facets)
			}
			if legacy.Matched != v1.Matched {
				t.Errorf("matched diverges for %q: %d vs %d", rawQuery, legacy.Matched, v1.Matched)
			}
		}
		if legacy.Count == 0 && rawQuery != "" {
			t.Errorf("legacy %q matched nothing; golden case too weak", rawQuery)
		}
	}
}

// TestV1CursorPaginationHTTP walks the full matching set page by page and
// checks the concatenation equals one unpaginated request — the cursor
// acceptance criterion, end to end over HTTP.
// TestV1CursorFromOlderReleaseResumes pins cursor compatibility across the
// removal of the shard epoch from the cursor payload: olderToken was
// minted for the first page below by the previous release and carries
// "e":0, a field today's payload no longer has. encoding/json ignores it,
// so the token must still resume to exactly the page the current cursor
// resumes to.
func TestV1CursorFromOlderReleaseResumes(t *testing.T) {
	const olderToken = "eyJzIjoicmVsZXZhbmNlIiwibyI6IiIsInIiOjAuMzEzNzUzNjQ4Njg0NDI0MDcsImsiOjAuMDA4MjE2OTI2ODY5MzUwODc0LCJ0IjoiU2Vuc29yOnRlbXBlcmF0LTAwMzYiLCJlIjowLCJnIjo4NzI1MDQ2NzI5NzY4NDQ3NTMyfQ"
	if raw, err := base64.RawURLEncoding.DecodeString(olderToken); err != nil || !strings.Contains(string(raw), `"e":0,`) {
		t.Fatalf("fixture token is not an epoch-carrying cursor: %q %v", raw, err)
	}
	_, ts := newTestServer(t)
	req := map[string]interface{}{
		"query": json.RawMessage(`{"keyword":{"text":"sensor temperature","mode":"any"}}`),
		"limit": 5,
	}
	code, body := postJSON(t, ts.URL+"/api/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("first page: %d: %s", code, body)
	}
	var first struct {
		NextCursor string `json:"nextCursor"`
	}
	if err := json.Unmarshal([]byte(body), &first); err != nil || first.NextCursor == "" {
		t.Fatalf("first page has no cursor: %s", body)
	}
	req["cursor"] = first.NextCursor
	code, want := postJSON(t, ts.URL+"/api/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("second page (current cursor): %d: %s", code, want)
	}
	req["cursor"] = olderToken
	code, got := postJSON(t, ts.URL+"/api/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("second page (older cursor): %d: %s", code, got)
	}
	if got != want {
		t.Fatalf("older cursor resumed elsewhere:\n  got  %s\n  want %s", got, want)
	}
}

func TestV1CursorPaginationHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	base := map[string]interface{}{
		"query": json.RawMessage(`{"namespace":{"name":"Sensor"}}`),
		"sort":  "title",
	}
	code, allBody := postJSON(t, ts.URL+"/api/v1/query", base)
	if code != http.StatusOK {
		t.Fatalf("unpaginated: %d: %s", code, allBody)
	}
	var all struct {
		Results []resultItem `json:"results"`
	}
	if err := json.Unmarshal([]byte(allBody), &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Results) < 10 {
		t.Fatalf("fixture too small: %d results", len(all.Results))
	}
	var walked []resultItem
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 30 {
			t.Fatal("cursor walk did not terminate")
		}
		req := map[string]interface{}{
			"query": base["query"], "sort": "title", "limit": 7,
		}
		if cursor != "" {
			req["cursor"] = cursor
		}
		code, body := postJSON(t, ts.URL+"/api/v1/query", req)
		if code != http.StatusOK {
			t.Fatalf("page %d: %d: %s", pages, code, body)
		}
		var page struct {
			Results    []resultItem `json:"results"`
			Matched    int          `json:"matched"`
			NextCursor string       `json:"nextCursor"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		if page.Matched != len(all.Results) {
			t.Errorf("page %d reports matched=%d, want %d", pages, page.Matched, len(all.Results))
		}
		walked = append(walked, page.Results...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(all.Results) {
		t.Fatalf("walked %d results, want %d", len(walked), len(all.Results))
	}
	wantRaw, _ := json.Marshal(all.Results)
	gotRaw, _ := json.Marshal(walked)
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Fatalf("cursor walk diverges from unpaginated ordering:\n  walked %s\n  all    %s", gotRaw, wantRaw)
	}
}

// TestV1CombinedCursor walks a combined query page by page through the
// keyset cursor and checks the concatenated rows equal one unpaginated
// request, and that the cursor is rejected when the join spec changes.
func TestV1CombinedCursor(t *testing.T) {
	_, ts := newTestServer(t)
	base := map[string]interface{}{
		"sql": "SELECT page, value FROM annotations WHERE property = 'measures'",
	}
	code, allBody := postJSON(t, ts.URL+"/api/v1/combined", base)
	if code != http.StatusOK {
		t.Fatalf("unpaginated: %d: %s", code, allBody)
	}
	var all struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(allBody), &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) < 8 {
		t.Fatalf("fixture too small: %d rows", len(all.Rows))
	}
	var walked [][]string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 30 {
			t.Fatal("combined cursor walk did not terminate")
		}
		req := map[string]interface{}{"sql": base["sql"], "limit": 3}
		if cursor != "" {
			req["cursor"] = cursor
		}
		code, body := postJSON(t, ts.URL+"/api/v1/combined", req)
		if code != http.StatusOK {
			t.Fatalf("page %d: %d: %s", pages, code, body)
		}
		var page struct {
			Rows       [][]string `json:"rows"`
			NextCursor string     `json:"nextCursor"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		if len(page.Rows) != 3 {
			t.Fatalf("page %d has %d rows with a nextCursor; want full page of 3", pages, len(page.Rows))
		}
		cursor = page.NextCursor
	}
	wantRaw, _ := json.Marshal(all.Rows)
	gotRaw, _ := json.Marshal(walked)
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Fatalf("combined cursor walk diverges:\nwalked %s\nall    %s", gotRaw, wantRaw)
	}

	// Mint a cursor, then present it with a different join spec: rejected.
	code, body := postJSON(t, ts.URL+"/api/v1/combined",
		map[string]interface{}{"sql": base["sql"], "limit": 3})
	if code != http.StatusOK {
		t.Fatalf("mint: %d: %s", code, body)
	}
	var minted struct {
		NextCursor string `json:"nextCursor"`
	}
	if err := json.Unmarshal([]byte(body), &minted); err != nil || minted.NextCursor == "" {
		t.Fatalf("no cursor minted: %v %s", err, body)
	}
	code, body = postJSON(t, ts.URL+"/api/v1/combined", map[string]interface{}{
		"sql":    base["sql"],
		"filter": json.RawMessage(`{"property":{"name":"status","op":"eq","value":"active"}}`),
		"cursor": minted.NextCursor,
		"limit":  3,
	})
	if code != http.StatusBadRequest || !strings.Contains(body, "bad_cursor") {
		t.Fatalf("cursor accepted across join-spec change: %d %s", code, body)
	}
}

// TestV1QueryAlphaValidation checks the v1-only strictness: alpha outside
// [0, 1] and alpha combined with an explicit sort are structured errors.
func TestV1QueryAlphaValidation(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"alpha": 1.5})
	if code != http.StatusBadRequest || !strings.Contains(body, `"alpha"`) {
		t.Fatalf("alpha 1.5: %d %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"alpha": 0.5, "sort": "rank"})
	if code != http.StatusBadRequest || !strings.Contains(body, `"sort"`) {
		t.Fatalf("alpha+sort: %d %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/api/v1/query",
		map[string]interface{}{"alpha": 0.5, "sort": "relevance", "limit": 2})
	if code != http.StatusOK {
		t.Fatalf("alpha with relevance sort should work: %d %s", code, body)
	}
}

// TestV1ErrorEnvelope checks every v1 failure mode returns the structured
// {"error": {code, message, field}} envelope.
func TestV1ErrorEnvelope(t *testing.T) {
	sys, ts := newTestServer(t)
	type errEnv struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Field   string `json:"field"`
		} `json:"error"`
	}
	check := func(name string, code int, body string, wantStatus int, wantCode, wantFieldSub string) {
		t.Helper()
		if code != wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", name, code, wantStatus, body)
			return
		}
		var env errEnv
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Errorf("%s: not an error envelope: %s", name, body)
			return
		}
		if env.Error.Code != wantCode {
			t.Errorf("%s: code %q, want %q", name, env.Error.Code, wantCode)
		}
		if wantFieldSub != "" && !strings.Contains(env.Error.Field, wantFieldSub) {
			t.Errorf("%s: field %q does not mention %q", name, env.Error.Field, wantFieldSub)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty message", name)
		}
	}

	code, body := postJSON(t, ts.URL+"/api/v1/query",
		map[string]interface{}{"query": json.RawMessage(`{"property":{"name":"p","op":"~","value":"v"}}`)})
	check("bad op", code, body, http.StatusBadRequest, "invalid_query", "property.op")

	code, body = postJSON(t, ts.URL+"/api/v1/query",
		map[string]interface{}{"query": json.RawMessage(`{"and":[]}`)})
	check("empty and", code, body, http.StatusBadRequest, "invalid_query", "and")

	code, body = postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"cursor": "@@@", "limit": 3})
	check("bad cursor", code, body, http.StatusBadRequest, "bad_cursor", "cursor")

	code, body = postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"sort": "magic"})
	check("bad sort", code, body, http.StatusBadRequest, "bad_request", "sort")

	code, body = postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"limit": -1})
	check("negative limit", code, body, http.StatusBadRequest, "bad_request", "limit")

	code, body = postJSON(t, ts.URL+"/api/v1/combined",
		map[string]interface{}{"filter": json.RawMessage(`{"keyword":{"text":""}}`)})
	check("combined bad filter", code, body, http.StatusBadRequest, "invalid_query", "keyword.text")

	// A body is exactly one JSON value: anything but space after it is
	// refused before the request does any work.
	postRaw := func(route, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.String()
	}
	for _, body := range []string{`{"limit": 1} garbage`, `{"limit": 1}{"limit": -1}`, `{"limit": 1}}`, `{"limit": 1} 2`} {
		code, resp := postRaw("/api/v1/query", body)
		check("query "+body, code, resp, http.StatusBadRequest, "bad_request", "")
	}
	if code, resp := postRaw("/api/v1/query", " {\"limit\": 1} \n\t"); code != http.StatusOK {
		t.Errorf("query with surrounding space: %d %s", code, resp)
	}
	code, body = postRaw("/api/v1/pages:batch", `{"pages":[{"title":"Sensor:Trailing-1","text":"x"}]} trailing`)
	check("batch trailing data", code, body, http.StatusBadRequest, "bad_request", "")
	if _, ok := sys.Repo.Wiki.Get("Sensor:Trailing-1"); ok {
		t.Error("a batch with trailing data wrote its page")
	}
}

// TestV1CombinedFilter checks the structured filter narrows the combined
// query's join, both alongside other parts and alone.
func TestV1CombinedFilter(t *testing.T) {
	_, ts := newTestServer(t)
	// Baseline: every sensor measuring temperature, via SQL alone.
	code, body := postJSON(t, ts.URL+"/api/v1/combined", map[string]interface{}{
		"sql": "SELECT page, value FROM annotations WHERE property = 'measures'",
	})
	if code != http.StatusOK {
		t.Fatalf("combined: %d: %s", code, body)
	}
	var unfiltered struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &unfiltered); err != nil {
		t.Fatal(err)
	}
	// Same SQL, joined with a structured filter.
	code, body = postJSON(t, ts.URL+"/api/v1/combined", map[string]interface{}{
		"sql":    "SELECT page, value FROM annotations WHERE property = 'measures'",
		"filter": json.RawMessage(`{"property":{"name":"measures","op":"eq","value":"temperature"}}`),
	})
	if code != http.StatusOK {
		t.Fatalf("combined+filter: %d: %s", code, body)
	}
	var filtered struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Rows) == 0 || len(filtered.Rows) >= len(unfiltered.Rows) {
		t.Fatalf("filter did not narrow the join: %d vs %d rows", len(filtered.Rows), len(unfiltered.Rows))
	}
	for _, row := range filtered.Rows {
		if row[1] != "temperature" {
			t.Errorf("filtered row leaked: %v", row)
		}
	}
	// Filter-only combined query.
	code, body = postJSON(t, ts.URL+"/api/v1/combined", map[string]interface{}{
		"filter": json.RawMessage(`{"property":{"name":"measures","op":"eq","value":"temperature"}}`),
	})
	if code != http.StatusOK {
		t.Fatalf("filter-only combined: %d: %s", code, body)
	}
	var alone struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &alone); err != nil {
		t.Fatal(err)
	}
	if len(alone.Rows) != len(filtered.Rows) {
		t.Errorf("filter-only rows = %d, want %d", len(alone.Rows), len(filtered.Rows))
	}
}
