package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current responses")

// TestLegacySearchGolden pins the legacy search surface — /api/search, the
// drill-down counts, the charts, the map, the HTML search page and the
// keyword part of the combined queries — byte for byte against responses
// recorded in testdata/golden. Regenerate with
// `go test ./internal/server -run TestLegacySearchGolden -update`.
func TestLegacySearchGolden(t *testing.T) {
	sys, ts := newTestServer(t)
	// "fieldstaff" reads only the Sensor namespace and is denied one page
	// in it; "auditor" keeps the anonymous policy minus one page.
	sys.Repo.ACL.Grant("fieldstaff", "Sensor")
	sys.Repo.ACL.DenyPage("fieldstaff", "Sensor:temperat-0003")
	sys.Repo.ACL.DenyPage("auditor", "Deployment:Davos-01")

	cases := []goldenCase{
		{"search_keywords", "/api/search?q=temperature", ""},
		{"search_keywords_all", "/api/search?q=wind+speed&limit=6", ""},
		{"search_mode_any", "/api/search?q=wind+snow&mode=any&limit=8", ""},
		{"search_phrase", "/api/search?q=%22field+site%22&limit=5", ""},
		{"search_filter_eq", "/api/search?filter=samplingRate:eq:60&sort=title&limit=6", ""},
		{"search_filter_ne", "/api/search?filter=status:ne:active&sort=title&limit=6", ""},
		{"search_filter_lt", "/api/search?filter=samplingrate:lt:60&sort=title&limit=6", ""},
		{"search_filter_le", "/api/search?filter=samplingrate:le:10&sort=title&limit=6", ""},
		{"search_filter_gt", "/api/search?filter=altitude:gt:1500&sort=title", ""},
		{"search_filter_ge", "/api/search?filter=startYear:ge:2008&sort=title&limit=6", ""},
		{"search_filter_contains", "/api/search?filter=measures:contains:speed&sort=title&limit=6", ""},
		{"search_filters_and_keyword", "/api/search?q=sensor&filter=status:eq:active&filter=samplingrate:ge:60&limit=6", ""},
		{"search_namespace", "/api/search?namespace=Deployment&sort=title", ""},
		{"search_namespace_keyword", "/api/search?q=sensor&namespace=Sensor&limit=5", ""},
		{"search_category", "/api/search?category=Fieldsites", ""},
		{"search_empty", "/api/search", ""},
		{"search_no_match", "/api/search?q=zzzqqq", ""},
		{"search_sort_relevance", "/api/search?q=temperature&sort=relevance&limit=4", ""},
		{"search_sort_relevance_asc", "/api/search?q=temperature&sort=relevance&order=asc&limit=4", ""},
		{"search_sort_relevance_desc", "/api/search?q=temperature&sort=relevance&order=desc&limit=4", ""},
		{"search_sort_title", "/api/search?q=temperature&sort=title&limit=4", ""},
		{"search_sort_title_asc", "/api/search?q=temperature&sort=title&order=asc&limit=4", ""},
		{"search_sort_title_desc", "/api/search?q=temperature&sort=title&order=desc&limit=4", ""},
		{"search_sort_rank", "/api/search?q=temperature&sort=rank&limit=4", ""},
		{"search_sort_rank_asc", "/api/search?q=temperature&sort=rank&order=asc&limit=4", ""},
		{"search_sort_rank_desc", "/api/search?q=temperature&sort=rank&order=desc&limit=4", ""},
		{"search_limit_offset", "/api/search?q=sensor&sort=title&limit=3&offset=2", ""},
		{"search_offset_only", "/api/search?namespace=Fieldsite&sort=title&offset=2", ""},
		{"search_offset_past_end", "/api/search?namespace=Fieldsite&limit=3&offset=50", ""},
		{"search_user_granted", "/api/search?q=sensor&user=fieldstaff&sort=title&limit=6", ""},
		{"search_user_denied_page", "/api/search?q=davos&user=auditor&sort=title", ""},
		{"search_user_anonymous", "/api/search?q=davos&sort=title", ""},
		{"search_facets", "/api/search?q=sensor&facet=measures&facet=Status&limit=3", ""},
		{"search_facets_filtered", "/api/search?namespace=Sensor&filter=status:eq:retired&facet=measures&facet=samplingRate&limit=2", ""},
		{"search_facets_user", "/api/search?q=temperature&user=fieldstaff&facet=partof&limit=2", ""},
		{"search_alpha", "/api/search?q=temperature&alpha=0.5&limit=5", ""},
		{"search_alpha_zero", "/api/search?q=sensor&alpha=0&limit=5", ""},
		{"search_alpha_one", "/api/search?q=sensor&alpha=1&limit=5", ""},
		{"search_alpha_clamped", "/api/search?q=sensor&alpha=7&limit=5", ""},
		{"search_alpha_sort_rank", "/api/search?q=temperature&alpha=0.5&sort=rank&limit=5", ""},
		{"search_alpha_sort_title_asc", "/api/search?q=temperature&alpha=0.3&sort=title&order=asc&limit=5", ""},
		{"search_alpha_offset", "/api/search?q=sensor&alpha=0.5&limit=3&offset=3", ""},
		{"search_alpha_facets", "/api/search?q=temperature&alpha=0.5&facet=status&limit=2", ""},
		{"search_bad_sort", "/api/search?sort=magic", ""},
		{"search_bad_filter_op", "/api/search?filter=a:zz:b", ""},
		{"search_bad_alpha", "/api/search?alpha=x", ""},
		{"values_counts", "/api/values?property=measures&counts=1&namespace=Sensor", ""},
		{"values_counts_keyword", "/api/values?property=Status&counts=1&q=temperature", ""},
		{"values_counts_filter_user", "/api/values?property=measures&counts=1&filter=status:ne:active&user=fieldstaff", ""},
		{"values_counts_bad_filter", "/api/values?property=measures&counts=1&filter=x", ""},
		{"bar_counts", "/viz/bar.svg?property=status&namespace=Sensor", ""},
		{"bar_counts_keyword", "/viz/bar.svg?property=measures&q=sensor", ""},
		{"bar_page_limit", "/viz/bar.svg?property=status&q=sensor&sort=title&limit=5", ""},
		{"bar_page_limit_offset", "/viz/bar.svg?property=measures&namespace=Sensor&sort=title&limit=4&offset=6", ""},
		{"bar_page_limit_alpha", "/viz/bar.svg?property=measures&q=temperature&alpha=0.5&limit=3", ""},
		{"bar_page_limit_zero", "/viz/bar.svg?property=status&namespace=Sensor&limit=0", ""},
		{"bar_page_limit_user", "/viz/bar.svg?property=partof&q=temperature&user=fieldstaff&limit=10", ""},
		{"bar_missing_property", "/viz/bar.svg?q=sensor", ""},
		{"pie_counts", "/viz/pie.svg?property=measures&namespace=Sensor", ""},
		{"pie_page_limit", "/viz/pie.svg?property=status&q=temperature&limit=4", ""},
		{"map_keyword", "/viz/map.svg?q=temperature&limit=20", ""},
		{"map_namespace_cell", "/viz/map.svg?namespace=Sensor&cell=0.2", ""},
		{"map_alpha", "/viz/map.svg?q=sensor&alpha=0.5&limit=10", ""},
		{"home_search", "/?q=temperature&sort=rank&limit=5", ""},
		{"combined_keyword_only", "/api/combined", `{"keywords":"wind"}`},
		{"combined_keyword_sql", "/api/combined",
			`{"keywords":"temperature","sql":"SELECT page, value FROM annotations WHERE property = 'status'","limit":6}`},
		{"combined_keyword_user", "/api/combined", `{"keywords":"sensor","user":"fieldstaff","limit":6}`},
		{"v1_combined_keyword_filter", "/api/v1/combined",
			`{"keywords":"temperature","filter":{"property":{"name":"status","op":"eq","value":"active"}},"limit":5}`},
		{"v1_combined_keyword_sparql", "/api/v1/combined",
			`{"keywords":"sensor","sparql":"SELECT ?page WHERE { ?page <smr://prop/status> \"retired\" }","user":"fieldstaff"}`},
	}
	runGolden(t, ts.URL, cases)
}

// TestSPARQLGolden pins GET /api/sparql byte for byte. Rows without an
// ORDER BY come out in the order the RDF store returns its matches
// (N-Triples text order), so these responses pin that order too.
// Regenerate with `go test ./internal/server -run TestSPARQLGolden -update`.
func TestSPARQLGolden(t *testing.T) {
	_, ts := newTestServer(t)
	queries := []struct{ name, q string }{
		{"bgp_one", `SELECT ?s WHERE { ?s <smr://prop/measures> "temperature" }`},
		{"bgp_two", `SELECT ?s ?r WHERE { ?s <smr://prop/measures> "wind speed" . ?s <smr://prop/samplingrate> ?r }`},
		{"bgp_three", `SELECT ?sensor ?site WHERE { ?sensor <smr://prop/partof> ?dep . ?dep <smr://prop/locatedin> ?site . ?sensor <smr://prop/status> "active" }`},
		{"bgp_subject", `SELECT ?p ?o WHERE { <smr://page/Deployment:Davos-01> ?p ?o }`},
		{"bgp_prefix", `PREFIX smr: <smr://prop/> SELECT ?s ?m WHERE { ?s smr:measures ?m . ?s smr:status "retired" }`},
		{"optional", `SELECT ?s ?st WHERE { ?s <smr://prop/measures> "humidity" OPTIONAL { ?s <smr://prop/status> ?st } }`},
		{"optional_unbound", `SELECT ?d ?x WHERE { ?d <smr://prop/locatedin> ?site OPTIONAL { ?d <smr://prop/nosuchprop> ?x } }`},
		{"union", `SELECT ?s WHERE { { ?s <smr://prop/measures> "snow height" } UNION { ?s <smr://prop/status> "retired" } }`},
		{"filter_compare", `SELECT ?s ?r WHERE { ?s <smr://prop/samplingrate> ?r FILTER (?r >= 60) }`},
		{"filter_logical", `SELECT ?s ?r WHERE { ?s <smr://prop/samplingrate> ?r FILTER (?r < 30 || ?r = 300) }`},
		{"filter_contains", `SELECT ?s ?m WHERE { ?s <smr://prop/measures> ?m FILTER (CONTAINS(?m, "wind")) }`},
		{"filter_regex", `SELECT ?s ?m WHERE { ?s <smr://prop/measures> ?m FILTER (REGEX(?m, "^S", "i")) }`},
		{"distinct", `SELECT DISTINCT ?m WHERE { ?s <smr://prop/measures> ?m }`},
		{"order_by", `SELECT ?s ?r WHERE { ?s <smr://prop/samplingrate> ?r } ORDER BY DESC(?r) LIMIT 12`},
		{"limit_offset", `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 25 OFFSET 40`},
		{"no_match", `SELECT ?s WHERE { ?s <smr://prop/measures> "no such quantity" }`},
		{"parse_error", `SELECT ?s WHERE { ?s <smr://prop/measures> `},
	}
	cases := []goldenCase{{"sparql_missing_q", "/api/sparql", ""}}
	for _, q := range queries {
		cases = append(cases, goldenCase{"sparql_" + q.name, "/api/sparql?q=" + url.QueryEscape(q.q), ""})
	}
	runGolden(t, ts.URL, cases)
}

// TestTagCloudGolden pins GET /api/tagcloud byte for byte: the default
// cloud, one per non-default threshold and minimum frequency, and the
// rejection of a malformed threshold.
// Regenerate with `go test ./internal/server -run TestTagCloudGolden -update`.
func TestTagCloudGolden(t *testing.T) {
	_, ts := newTestServer(t)
	runGolden(t, ts.URL, []goldenCase{
		{"tagcloud_default", "/api/tagcloud", ""},
		{"tagcloud_minfreq", "/api/tagcloud?minfreq=2", ""},
		{"tagcloud_threshold", "/api/tagcloud?threshold=0.3", ""},
		{"tagcloud_bad_threshold", "/api/tagcloud?threshold=abc", ""},
	})
}

// goldenCase is one recorded request: a GET of path, or a POST of body
// to path when body is set.
type goldenCase struct{ name, path, body string }

// runGolden issues each case against the server at base and compares the
// status line, content type and body with testdata/golden/<name>.golden,
// rewriting the file instead under -update.
func runGolden(t *testing.T, base string, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if c.body != "" {
				resp, err = http.Post(base+c.path, "application/json", strings.NewReader(c.body))
			} else {
				resp, err = http.Get(base + c.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
			file := filepath.Join("testdata", "golden", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%v (record with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s\n got: %.600s\nwant: %.600s", c.path, file, got, want)
			}
		})
	}
}
