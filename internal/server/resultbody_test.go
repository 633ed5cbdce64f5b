package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/workload"
)

// wantV1Body is the POST /api/v1/query body as encoding/json writes it
// from the route's response struct.
func wantV1Body(res *search.ExecResult, facets bool, snippet func(string) string) ([]byte, error) {
	out := struct {
		Count      int                       `json:"count"`
		Matched    int                       `json:"matched"`
		Results    []resultItem              `json:"results"`
		Facets     map[string]map[string]int `json:"facets,omitempty"`
		NextCursor string                    `json:"nextCursor,omitempty"`
		Plan       *explain.Node             `json:"plan,omitempty"`
	}{
		Count:      len(res.Results),
		Matched:    res.Matched,
		Results:    resultItems(res.Results, snippet),
		NextCursor: res.NextCursor,
		Plan:       res.Plan,
	}
	if facets {
		out.Facets = res.Facets
	}
	return encodeJSON(out)
}

// wantSearchBody is the legacy /api/search body as encoding/json writes
// it from the route's response struct.
func wantSearchBody(res *search.ExecResult, facets bool, snippet func(string) string) ([]byte, error) {
	out := struct {
		Count   int                       `json:"count"`
		Matched int                       `json:"matched,omitempty"`
		Results []resultItem              `json:"results"`
		Facets  map[string]map[string]int `json:"facets,omitempty"`
	}{Count: len(res.Results), Results: resultItems(res.Results, snippet)}
	if facets {
		out.Facets, out.Matched = res.Facets, res.Matched
	}
	return encodeJSON(out)
}

// resultItem is the JSON shape of one search result in both search
// routes' response structs.
type resultItem struct {
	Title     string            `json:"title"`
	Relevance float64           `json:"relevance"`
	Rank      float64           `json:"rank"`
	Matched   map[string]string `json:"matched,omitempty"`
	Snippet   string            `json:"snippet,omitempty"`
}

// resultItems renders results, attaching snippets when snippet is not
// nil. An empty result set stays nil: "results": null.
func resultItems(rs []search.Result, snippet func(string) string) []resultItem {
	var out []resultItem
	for _, r := range rs {
		it := resultItem{Title: r.Title, Relevance: r.Relevance, Rank: r.Rank, Matched: r.Matched}
		if snippet != nil {
			it.Snippet = snippet(r.Title)
		}
		out = append(out, it)
	}
	return out
}

// resultGen draws random search results whose strings JSON escapes (HTML
// characters, the JavaScript line separators, invalid UTF-8, control
// bytes) and whose floats span encoding/json's 'f' and 'e' forms.
type resultGen struct{ rng *rand.Rand }

func (g resultGen) str() string {
	pieces := []string{"Sensor:", "a", "<b>", "&amp;", `"`, `\`, " ", "\u2028", "\u2029", "é", "🌡", "\xff\xfe", "\x00", "\n", "1"}
	var sb strings.Builder
	for n := g.rng.Intn(5); n > 0; n-- {
		sb.WriteString(pieces[g.rng.Intn(len(pieces))])
	}
	return sb.String()
}

func (g resultGen) float() float64 {
	switch g.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e20, 1e21, math.MaxFloat64, 3}[g.rng.Intn(8)]
	case 2:
		for {
			if f := math.Float64frombits(g.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 3:
		return g.rng.NormFloat64() * 1e-4
	default:
		return g.rng.Float64() * 10
	}
}

// matched is nil, empty or holds up to three values.
func (g resultGen) matched() map[string]string {
	n := g.rng.Intn(5) - 1
	if n < 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[g.str()] = g.str()
	}
	return m
}

// facets is nil, empty or holds up to three properties whose counts are
// nil, empty or hold up to three values.
func (g resultGen) facets() map[string]map[string]int {
	n := g.rng.Intn(5) - 1
	if n < 0 {
		return nil
	}
	fs := make(map[string]map[string]int, n)
	for i := 0; i < n; i++ {
		var counts map[string]int
		if k := g.rng.Intn(5) - 1; k >= 0 {
			counts = make(map[string]int, k)
			for j := 0; j < k; j++ {
				counts[g.str()] = g.rng.Intn(2000) - 10
			}
		}
		fs[g.str()] = counts
	}
	return fs
}

func (g resultGen) plan(depth int) *explain.Node {
	n := &explain.Node{Op: g.str(), Detail: g.str(), Est: g.rng.Intn(100) - 1, Act: g.rng.Intn(100)}
	if depth > 0 {
		for k := g.rng.Intn(3); k > 0; k-- {
			n.Children = append(n.Children, g.plan(depth-1))
		}
	}
	return n
}

func (g resultGen) result() *search.ExecResult {
	res := &search.ExecResult{Matched: g.rng.Intn(1000), Facets: g.facets()}
	switch n := g.rng.Intn(8) - 1; n {
	case -1:
	case 0:
		res.Results = []search.Result{}
	default:
		for i := 0; i < n; i++ {
			res.Results = append(res.Results, search.Result{
				Title: g.str(), Relevance: g.float(), Rank: g.float(), Matched: g.matched(),
			})
		}
	}
	if g.rng.Intn(2) == 0 {
		res.NextCursor = g.str() + "cursor"
	}
	return res
}

// TestResultBodiesMatchEncodeJSON checks the /api/v1/query body (with and
// without a plan) and the legacy /api/search body byte for byte against
// what encoding/json writes from the routes' response structs, on random
// results, facets, cursors and snippets, including none of each. A
// non-finite relevance or rank must fail as encoding/json fails.
func TestResultBodiesMatchEncodeJSON(t *testing.T) {
	g := resultGen{rand.New(rand.NewSource(3))}
	for i := 0; i < 3000; i++ {
		res := g.result()
		if i%3 == 0 {
			res.Plan = g.plan(2)
		}
		if i%50 == 7 && len(res.Results) > 0 {
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
			if r := &res.Results[g.rng.Intn(len(res.Results))]; g.rng.Intn(2) == 0 {
				r.Rank = bad
			} else {
				r.Relevance = bad
			}
		}
		var snippet func(string) string
		if g.rng.Intn(3) > 0 {
			snips := map[string]string{}
			for _, r := range res.Results {
				if g.rng.Intn(3) > 0 {
					snips[r.Title] = g.str()
				}
			}
			snippet = func(title string) string { return snips[title] }
		}
		facets := g.rng.Intn(2) == 0
		for _, body := range []struct {
			name      string
			got, want func(*search.ExecResult, bool, func(string) string) ([]byte, error)
		}{
			{"v1", v1QueryBody, wantV1Body},
			{"search", searchBody, wantSearchBody},
		} {
			got, gotErr := body.got(res, facets, snippet)
			want, wantErr := body.want(res, facets, snippet)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s body %d: error %v, want %v", body.name, i, gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s body %d (facets %v):\ngot  %s\nwant %s", body.name, i, facets, got, want)
			}
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON checks appendJSONFloat against
// json.Marshal on the edges of its 'f' and 'e' forms, on random finite
// bit patterns and on random values either side of the forms' bounds,
// appending after existing bytes.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99e-7, 1e-10, 1e-100,
		1e20, 1e21, 1.5e21, 1e100, math.MaxFloat64, 1, 0.1, 123456789.125} {
		check(f)
		check(-f)
	}
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 200000; {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
			check(rng.Float64() * math.Pow(10, float64(rng.Intn(32)-9)))
			n++
		}
	}
}

// TestNaNRankIsEncodingFailure checks that a non-finite PageRank score
// turns a search response into the 500 envelope, not a torn or invalid
// body, on both search routes.
func TestNaNRankIsEncodingFailure(t *testing.T) {
	sys, ts := newTestServer(t)
	ranks := map[string]float64{}
	for title := range sys.Engine.Ranks() {
		ranks[title] = math.NaN()
	}
	sys.Engine.SetRanks(ranks)
	const want = `{"error":{"code":"internal","message":"encoding response: json: unsupported value: NaN"}}` + "\n"
	code, body := postJSON(t, ts.URL+"/api/v1/query", map[string]interface{}{"limit": 3})
	if code != http.StatusInternalServerError || body != want {
		t.Errorf("/api/v1/query: %d %s, want 500 %s", code, body, want)
	}
	if code, body := get(t, ts.URL+"/api/search?q=sensor&limit=3"); code != http.StatusInternalServerError || body != want {
		t.Errorf("/api/search: %d %s, want 500 %s", code, body, want)
	}
}

// BenchmarkV1QueryShapes serves POST /api/v1/query in process on the
// perfbench corpus (5,000 sensors), one workload.BuildQueryMix query of
// each of its five shapes, without and with facets on measures and
// status, the two variants the search workload sends.
func BenchmarkV1QueryShapes(b *testing.B) {
	sys, err := sensormeta.New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 15, Deployments: 300, Sensors: 5000, Seed: 1, TagsPerSensor: 1,
	}); err != nil {
		b.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		b.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	names := []string{"keyword", "rank", "eq", "range", "combined"}
	shapes := make([]*search.Query, len(names))
	for _, q := range workload.BuildQueryMix(workload.QueryMixOptions{Count: 100, Seed: 1}) {
		var s int
		switch {
		case len(q.Filters) == 0 && q.SortBy == search.SortRank:
			s = 1
		case len(q.Filters) == 0:
			s = 0
		case q.Filters[0].Property == "measures":
			s = 2
		case q.Filters[0].Property == "samplingRate":
			s = 3
		default:
			s = 4
		}
		if shapes[s] == nil {
			shapes[s] = &q
		}
	}
	for s, q := range shapes {
		if q == nil {
			b.Fatalf("query mix has no %s query", names[s])
		}
		expr, err := search.LegacyExpr(*q)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := query.Marshal(expr)
		if err != nil {
			b.Fatal(err)
		}
		for _, facets := range [][]string{nil, {"measures", "status"}} {
			body, err := json.Marshal(struct {
				Query  json.RawMessage `json:"query"`
				Sort   string          `json:"sort,omitempty"`
				Order  string          `json:"order,omitempty"`
				Limit  int             `json:"limit,omitempty"`
				Facets []string        `json:"facets,omitempty"`
			}{raw, string(q.SortBy), string(q.Order), q.Limit, facets})
			if err != nil {
				b.Fatal(err)
			}
			name := names[s]
			if facets != nil {
				name += "+facets"
			}
			b.Run(name, func(b *testing.B) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				w := &discardWriter{h: http.Header{}}
				rd := bytes.NewReader(body)
				req := httptest.NewRequest(http.MethodPost, "/api/v1/query", rd)
				b.ReportAllocs()
				for b.Loop() {
					rd.Reset(body)
					srv.ServeHTTP(w, req)
				}
			})
		}
	}
}
