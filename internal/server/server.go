// Package server implements the web application of the demonstration
// (Section V): the advanced search interface with autocomplete and dynamic
// drop-downs, JSON APIs for every subsystem, the visualization endpoints
// (tables, bar/pie charts, maps, association graphs, hypergraphs, tag
// clouds) and the bulk-loading interface. Everything is served from the
// Go standard library's net/http.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/relational"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/sparql"
	"repro/internal/tagging"
	"repro/internal/viz"
)

// Options configures optional server behaviour.
type Options struct {
	// AutoRefresh, when positive, refreshes the system automatically after
	// write endpoints (/api/pages, /api/tags, /api/v1/pages:batch),
	// debounced by this duration: a burst of writes triggers one refresh
	// that runs AutoRefresh after the last write of the burst. Zero
	// disables (writes require an explicit POST /api/refresh, as before).
	AutoRefresh time.Duration
	// Replica, when set, marks this server as a follower: the Write routes
	// of the route table are rejected with a structured 403 naming
	// Replica.PrimaryURL(), read responses carry an X-Replica-Lag-Seq
	// header and /api/admin/stats gains a replication block.
	Replica ReplicaSource
	// MaxLagSeq, when positive (and Replica is set), degrades reads to 503
	// once the follower lags more than this many sequence numbers behind
	// the primary (or has never synced) — graceful degradation instead of
	// arbitrarily stale responses. Admin endpoints are exempt.
	MaxLagSeq uint64
}

// Server is the HTTP application. It implements http.Handler.
type Server struct {
	sys  *sensormeta.System
	mux  *http.ServeMux
	opts Options
	deb  *debouncer

	cloudMu  sync.Mutex
	cloudEnc encodedCloud // guarded by cloudMu
}

// encodedCloud is the tag cloud /api/tagcloud encoded last, with its body.
type encodedCloud struct {
	cloud *tagging.Cloud
	body  []byte
}

// route is one entry of the route table. A route serves only Method (a
// GET route also answers HEAD); Write marks the endpoints that mutate the
// repository, which a follower refuses; Params declares the query
// parameters the handler reads (params.go).
type route struct {
	Pattern string
	Method  string
	Handler func(*Server, http.ResponseWriter, *http.Request, params)
	Write   bool
	Params  []param
}

// The parameter vocabularies shared by several routes. sortParam and
// orderParam also check the sort and order of /api/v1/query bodies.
var (
	sortParam    = param{Name: "sort", Kind: kindEnum, Enum: []string{"relevance", "title", "rank"}, Default: "relevance"}
	orderParam   = param{Name: "order", Kind: kindEnum, Enum: []string{"asc", "desc"}}
	searchParams = []param{
		{Name: "q"}, {Name: "namespace"}, {Name: "category"}, {Name: "user"},
		{Name: "mode", Kind: kindEnum, Enum: []string{"all", "any"}, Default: "all"},
		{Name: "filter", Kind: kindStrings}, sortParam, orderParam,
		{Name: "limit", Kind: kindInt}, {Name: "offset", Kind: kindInt},
		{Name: "alpha", Kind: kindFloat, Min: math.Inf(-1)},
	}
	cloudParams = []param{
		{Name: "threshold", Kind: kindFloat, MinOpen: true, Max: 1, Default: fmt.Sprint(tagging.DefaultSimilarityThreshold)},
		{Name: "minfreq", Kind: kindInt},
	}
	explainParams = []param{{Name: "explain", Kind: kindBool}}
	requiredQ     = param{Name: "q", Required: true}
	kParam        = param{Name: "k", Kind: kindInt, Min: 1, Default: "10"}
	propertyParam = param{Name: "property", Required: true}
)

// routes is the server's route table. The mux, the method check, the
// follower gate, parameter parsing and the docs coverage test
// (docs/API.md) all read it.
var routes = []route{
	{"/", http.MethodGet, (*Server).handleHome, false, searchParams},
	{"/page/", http.MethodGet, (*Server).handlePage, false, []param{{Name: "user"}}},
	{"/api/search", http.MethodGet, (*Server).handleSearch, false, slices.Concat(searchParams, []param{{Name: "facet", Kind: kindStrings}})},
	{"/api/autocomplete", http.MethodGet, (*Server).handleAutocomplete, false, []param{{Name: "prefix"}, kParam}},
	{"/api/properties", http.MethodGet, (*Server).handleProperties, false, []param{{Name: "by", Kind: kindEnum, Enum: []string{"name", "score"}, Default: "name"}}},
	{"/api/values", http.MethodGet, (*Server).handleValues, false, slices.Concat([]param{propertyParam, {Name: "counts", Kind: kindBool}}, searchParams)},
	{"/api/recommend", http.MethodGet, (*Server).handleRecommend, false, []param{{Name: "seed", Kind: kindStrings, Required: true}, kParam, {Name: "user"}}},
	{"/api/tagcloud", http.MethodGet, (*Server).handleTagCloudJSON, false, cloudParams},
	{"/api/pages", http.MethodPost, (*Server).handlePutPage, true, nil},
	{"/api/tags", http.MethodPost, (*Server).handleAddTag, true, nil},
	{"/api/refresh", http.MethodPost, (*Server).handleRefresh, false, nil},
	{"/api/admin/snapshot", http.MethodPost, (*Server).handleAdminSnapshot, false, nil},
	{"/api/admin/snapshot/latest", http.MethodGet, (*Server).handleAdminSnapshotLatest, false, nil},
	{"/api/admin/stats", http.MethodGet, (*Server).handleAdminStats, false, nil},
	{"/api/admin/wal", http.MethodGet, (*Server).handleAdminWAL, false, []param{
		{Name: "from", Kind: kindInt}, {Name: "max", Kind: kindInt, Min: 1, Default: "1024"}, {Name: "wait", Kind: kindDuration},
	}},
	{"/api/sql", http.MethodGet, (*Server).handleSQL, false, append([]param{requiredQ}, explainParams...)},
	{"/api/sparql", http.MethodGet, (*Server).handleSPARQL, false, []param{requiredQ}},
	{"/api/combined", http.MethodPost, (*Server).handleCombined, false, nil},
	{"/api/v1/query", http.MethodPost, (*Server).handleV1Query, false, explainParams},
	{"/api/v1/combined", http.MethodPost, (*Server).handleV1Combined, false, explainParams},
	{"/api/v1/pages:batch", http.MethodPost, (*Server).handleV1PagesBatch, true, nil},
	{"/bulkload", http.MethodPost, (*Server).handleBulkLoad, true, []param{{Name: "author", Default: "bulkload"}}},
	{"/viz/bar.svg", http.MethodGet, (*Server).handleBarChart, false, slices.Concat([]param{propertyParam}, searchParams)},
	{"/viz/pie.svg", http.MethodGet, (*Server).handlePieChart, false, slices.Concat([]param{propertyParam}, searchParams)},
	{"/viz/map.svg", http.MethodGet, (*Server).handleMap, false, slices.Concat(searchParams, []param{{Name: "cell", Kind: kindFloat, Default: "0.05"}})},
	{"/viz/graph.svg", http.MethodGet, (*Server).handleGraphSVG, false, nil},
	{"/viz/graph.dot", http.MethodGet, (*Server).handleGraphDOT, false, nil},
	{"/viz/hypergraph.svg", http.MethodGet, (*Server).handleHypergraph, false, []param{{Name: "focus"}}},
	{"/viz/tagcloud.html", http.MethodGet, (*Server).handleTagCloudHTML, false, cloudParams},
	{"/viz/taggraph.svg", http.MethodGet, (*Server).handleTagGraph, false, cloudParams},
}

// New wires all routes for a system with default options.
func New(sys *sensormeta.System) *Server { return NewWithOptions(sys, Options{}) }

// NewWithOptions wires all routes for a system.
func NewWithOptions(sys *sensormeta.System, opts Options) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), opts: opts}
	if opts.AutoRefresh > 0 {
		s.deb = newDebouncer(opts.AutoRefresh, func() {
			// Background path: the error cannot reach a response, so make
			// it visible the way the explicit POST /api/refresh would.
			if err := sys.Refresh(); err != nil {
				log.Printf("server: auto-refresh: %v", err)
			}
		})
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.Pattern, s.serve(rt))
	}
	return s
}

// serve wraps one route: the replica gate first, then the method check,
// then the route's parameters, then the handler.
func (s *Server) serve(rt route) http.HandlerFunc {
	admin := strings.HasPrefix(rt.Pattern, "/api/admin/")
	allow := rt.Method
	if rt.Method == http.MethodGet {
		allow += ", " + http.MethodHead
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if s.gateReplica(w, rt.Write, admin) {
			return
		}
		if r.Method != rt.Method && (rt.Method != http.MethodGet || r.Method != http.MethodHead) {
			w.Header().Set("Allow", allow)
			httpError(w, http.StatusMethodNotAllowed, "%s required", rt.Method)
			return
		}
		if rt.Pattern == "/" && r.URL.Path != "/" { // the mux's catch-all
			httpError(w, http.StatusNotFound, "no route for %s", r.URL.Path)
			return
		}
		p, verr := requestParams(rt.Params, r)
		if verr != nil {
			writeEnvelope(w, http.StatusBadRequest, *verr)
			return
		}
		rt.Handler(s, w, r, p)
	}
}

// Close stops the auto-refresh debouncer, if any.
func (s *Server) Close() {
	if s.deb != nil {
		s.deb.stop()
	}
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// debouncer coalesces a burst of triggers into one trailing-edge call,
// with a max-wait bound so a sustained write stream (triggers arriving
// faster than the debounce interval forever) cannot starve the callback.
type debouncer struct {
	mu       sync.Mutex
	d        time.Duration
	f        func()
	timer    *time.Timer // guarded by mu
	deadline time.Time   // guarded by mu; latest time the pending burst may fire
	stopped  bool        // guarded by mu
}

// debounceMaxWaitFactor bounds how long back-to-back triggers can keep
// postponing the callback: at most factor × the debounce interval after
// the first trigger of a burst.
const debounceMaxWaitFactor = 4

func newDebouncer(d time.Duration, f func()) *debouncer {
	return &debouncer{d: d, f: f}
}

// trigger (re)arms the timer: f runs d after the last trigger of a burst,
// but no later than debounceMaxWaitFactor·d after its first trigger.
func (db *debouncer) trigger() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.stopped {
		return
	}
	if db.timer != nil {
		delay := db.d
		if remaining := time.Until(db.deadline); remaining < delay {
			delay = max(remaining, 0)
		}
		db.timer.Reset(delay)
		return
	}
	db.deadline = time.Now().Add(debounceMaxWaitFactor * db.d)
	db.timer = time.AfterFunc(db.d, func() {
		db.mu.Lock()
		db.timer = nil
		stopped := db.stopped
		db.mu.Unlock()
		if !stopped {
			db.f()
		}
	})
}

func (db *debouncer) stop() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stopped = true
	if db.timer != nil {
		db.timer.Stop()
		db.timer = nil
	}
}

// wrote notifies the auto-refresh debouncer (when enabled) that a write
// endpoint mutated the repository.
func (s *Server) wrote() {
	if s.deb != nil {
		s.deb.trigger()
	}
}

// normalizeProperty canonicalizes a user-supplied property name once, at
// the API boundary: the repository's relational projection, the
// recommender's scores and the facet maps all key properties lowercased.
func normalizeProperty(p string) string {
	return strings.ToLower(strings.TrimSpace(p))
}

// encodeJSON renders v as the indented JSON body of every JSON response.
func encodeJSON(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	// Encode before writing: an encoding failure discovered after the
	// first byte hit the wire could only produce a torn body, so the
	// status and headers are committed only once the payload is whole.
	body, err := encodeJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBody(w, body)
}

func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func writeSVG(w http.ResponseWriter, svg string) {
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, svg)
}

// httpError reports a legacy-route failure in the same structured envelope
// as /api/v1 (docs/API.md): {"error":{"code":...,"message":...}}, with the
// code derived from the HTTP status. Before PR-8 this wrapped http.Error's
// text/plain body, leaving clients two error grammars to parse; now every
// surface speaks one.
func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeV1Error(w, code, errorCode(code), "", fmt.Sprintf(format, args...))
}

// errorCode maps an HTTP status onto the envelope's machine-readable code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return fmt.Sprintf("http_%d", status)
	}
}

// filterOps is the operator vocabulary of filter triples.
var filterOps = map[string]search.FilterOp{
	"eq": search.OpEquals, "ne": search.OpNotEqual,
	"lt": search.OpLess, "le": search.OpLessEq,
	"gt": search.OpGreater, "ge": search.OpGreatEq,
	"contains": search.OpContains,
}

// parseQuery builds a search.Query from the common search parameters
// (searchParams). A filter that is not property:op:value with an op of
// filterOps is a bad_request naming the filter field.
func parseQuery(p params) (search.Query, error) {
	q := search.Query{
		Keywords: p.str("q"), Namespace: p.str("namespace"), Category: p.str("category"), User: p.str("user"),
		SortBy: search.SortKey(p.str("sort")), Order: search.Order(p.str("order")),
		Limit: p.int("limit"), Offset: p.int("offset"),
	}
	if p.str("mode") == "any" {
		q.Mode = search.ModeAny
	}
	if p.has("alpha") {
		alpha := p.float("alpha")
		q.Alpha = &alpha
	}
	for _, f := range p.strs("filter") {
		parts := strings.SplitN(f, ":", 3)
		if len(parts) != 3 || filterOps[parts[1]] == "" {
			return q, &v1Error{Code: "bad_request", Field: "filter",
				Message: fmt.Sprintf("filter %q is not property:op:value with op one of %s",
					f, strings.Join(slices.Sorted(maps.Keys(filterOps)), ", "))}
		}
		q.Filters = append(q.Filters, search.PropertyFilter{
			Property: normalizeProperty(parts[0]), Op: filterOps[parts[1]], Value: parts[2],
		})
	}
	return q, nil
}

func (s *Server) runSearch(p params) ([]search.Result, search.Query, error) {
	res, q, err := s.runSearchFacets(p, nil)
	if err != nil {
		return nil, q, err
	}
	return res.Results, q, nil
}

// runSearchFacets executes the request's query, accumulating facet counts
// for facetProps in the same pass over the matching set (no second
// enumeration, no extra materialization). alpha rides along inside the
// query: the engine fuses relevance and PageRank inside its top-k
// selection, over the whole matching set.
func (s *Server) runSearchFacets(p params, facetProps []string) (*search.ExecResult, search.Query, error) {
	q, err := parseQuery(p)
	if err != nil {
		return nil, q, err
	}
	expr, err := search.LegacyExpr(q)
	if err != nil {
		return nil, q, err
	}
	opts := search.LegacyOptions(q)
	opts.Facets = facetProps
	res, err := s.sys.Engine.Execute(expr, opts)
	return res, q, err
}

// countFacet streams one property's value counts over every page matching
// the request's query, without materializing results, and returns them
// with the number of matching pages. Sort, paging and alpha parameters do
// not change the counts.
func (s *Server) countFacet(p params, prop string) (map[string]int, int, error) {
	q, err := parseQuery(p)
	if err != nil {
		return nil, 0, err
	}
	expr, err := search.LegacyExpr(q)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.sys.Engine.Execute(expr, search.ExecOptions{User: q.User, Facets: []string{prop}, CountOnly: true})
	if err != nil {
		return nil, 0, err
	}
	return res.Facets[prop], res.Matched, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, p params) {
	// Repeated facet=<property> parameters stream per-property value counts
	// over the whole matching set (not just the returned page), accumulated
	// in the same pass as the results.
	facetProps := p.strs("facet")
	for i := range facetProps {
		facetProps[i] = normalizeProperty(facetProps[i])
	}
	res, q, err := s.runSearchFacets(p, facetProps)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	out := struct {
		Count   int                       `json:"count"`
		Matched int                       `json:"matched,omitempty"`
		Results []resultItem              `json:"results"`
		Facets  map[string]map[string]int `json:"facets,omitempty"`
	}{Count: len(res.Results), Results: s.resultItems(res.Results, q.Keywords)}
	if len(facetProps) > 0 {
		out.Facets, out.Matched = res.Facets, res.Matched
	}
	writeJSON(w, out)
}

func (s *Server) handleAutocomplete(w http.ResponseWriter, r *http.Request, p params) {
	writeJSON(w, s.sys.Autocomplete(p.str("prefix"), p.int("k")))
}

// handleProperties lists the distinct property names for the first-level
// dynamic drop-down — alphabetically, or by PageRank-derived importance
// with by=score (the recommendation mechanism's property scores).
func (s *Server) handleProperties(w http.ResponseWriter, r *http.Request, p params) {
	props, err := s.sys.Repo.Properties()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "properties: %v", err)
		return
	}
	if p.str("by") == "score" {
		props = s.sys.TopProperties(len(props))
	}
	writeJSON(w, props)
}

// handleValues serves the second-level dynamic drop-down: the distinct
// values of one property. With counts=1 the response becomes
// [{value, count}] pairs computed over the pages matching the usual search
// parameters (q, filter, namespace, …) via the streaming facet path, so a
// drill-down menu can show result counts without materializing results.
func (s *Server) handleValues(w http.ResponseWriter, r *http.Request, p params) {
	prop := normalizeProperty(p.str("property"))
	if !p.flag("counts") {
		vals, err := s.sys.Repo.PropertyValues(prop)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "values: %v", err)
			return
		}
		writeJSON(w, vals)
		return
	}
	counts, _, err := s.countFacet(p, prop)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	type vc struct {
		Value string `json:"value"`
		Count int    `json:"count"`
	}
	out := make([]vc, 0, len(counts))
	for v, c := range counts {
		out = append(out, vc{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	writeJSON(w, out)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request, p params) {
	writeJSON(w, s.sys.Recommend(p.strs("seed"), p.str("user"), p.int("k")))
}

// tagCloud returns the cloud the request's parameters select, or writes
// the error envelope (prefixed with route) and returns nil.
func (s *Server) tagCloud(w http.ResponseWriter, p params, route string) *tagging.Cloud {
	cloud, err := s.sys.TagCloud(tagging.CloudOptions{
		UsePivot: true, Threshold: p.float("threshold"), MinFrequency: p.int("minfreq"),
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%s: %v", route, err)
		return nil
	}
	return cloud
}

func (s *Server) handleTagCloudJSON(w http.ResponseWriter, r *http.Request, p params) {
	cloud := s.tagCloud(w, p, "tagcloud")
	if cloud == nil {
		return
	}
	body, err := s.cloudJSON(cloud)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBody(w, body)
}

// cloudJSON returns the encoded body of cloud, encoding it only when it is
// not the cloud encoded last. The tagging pipeline hands back the same
// *Cloud until the cloud changes and never mutates one it served, so the
// pointer identifies the bytes; the entry holds the cloud, so its address
// cannot be reused for a later one. One entry suffices because the
// pipeline itself caches one cloud.
func (s *Server) cloudJSON(cloud *tagging.Cloud) ([]byte, error) {
	s.cloudMu.Lock()
	defer s.cloudMu.Unlock()
	if s.cloudEnc.cloud == cloud {
		return s.cloudEnc.body, nil
	}
	body, err := encodeJSON(cloud)
	if err != nil {
		return nil, err
	}
	s.cloudEnc = encodedCloud{cloud: cloud, body: body}
	return body, nil
}

func (s *Server) handleTagCloudHTML(w http.ResponseWriter, r *http.Request, p params) {
	cloud := s.tagCloud(w, p, "tagcloud")
	if cloud == nil {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, viz.TagCloudHTML(cloud))
}

func (s *Server) handleTagGraph(w http.ResponseWriter, r *http.Request, p params) {
	cloud := s.tagCloud(w, p, "taggraph")
	if cloud == nil {
		return
	}
	writeSVG(w, viz.TagGraphSVG(cloud, 0))
}

func (s *Server) handlePutPage(w http.ResponseWriter, r *http.Request, _ params) {
	var in struct {
		Title   string `json:"title"`
		Author  string `json:"author"`
		Text    string `json:"text"`
		Comment string `json:"comment"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "pages: %v", err)
		return
	}
	page, err := s.sys.PutPage(in.Title, in.Author, in.Text, in.Comment)
	if err != nil {
		httpError(w, http.StatusBadRequest, "pages: %v", err)
		return
	}
	s.wrote()
	writeJSON(w, map[string]interface{}{
		"title":     page.Title.String(),
		"revisions": len(page.Revisions),
	})
}

func (s *Server) handleAddTag(w http.ResponseWriter, r *http.Request, _ params) {
	var in struct {
		Page   string `json:"page"`
		Tag    string `json:"tag"`
		Author string `json:"author"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "tags: %v", err)
		return
	}
	if err := s.sys.Repo.AddTag(in.Page, in.Tag, in.Author); err != nil {
		httpError(w, http.StatusBadRequest, "tags: %v", err)
		return
	}
	s.wrote()
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleAdminStats reports refresh observability: journal positions of
// every consumer, PageRank skip/warm/cold counts, recommender and tagging
// delta-vs-rebuild counters, and the server's auto-refresh configuration.
func (s *Server) handleAdminStats(w http.ResponseWriter, r *http.Request, _ params) {
	writeJSON(w, struct {
		Refresh       sensormeta.RefreshStats `json:"refresh"`
		AutoRefreshMs int64                   `json:"autoRefreshMs"`
		Planner       relational.PlannerStats `json:"planner"`
		Replica       any                     `json:"replica,omitempty"`
	}{
		Refresh:       s.sys.Stats(),
		AutoRefreshMs: s.opts.AutoRefresh.Milliseconds(),
		Planner:       s.sys.PlannerStats(),
		Replica:       s.replicaStatsBlock(),
	})
}

// handleAdminSnapshot persists the repository state and compacts the
// write-ahead log prefix the snapshot covers. 409 when the server runs
// without a data directory.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request, _ params) {
	info, err := s.sys.Repo.Snapshot()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, smr.ErrNotDurable) {
			code = http.StatusConflict
		}
		httpError(w, code, "snapshot: %v", err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request, _ params) {
	if err := s.sys.Refresh(); err != nil {
		httpError(w, http.StatusInternalServerError, "refresh: %v", err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request, p params) {
	q := p.str("q")
	if p.flag("explain") {
		rs, plan, err := s.sys.QuerySQLExplained(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, "sql: %v", err)
			return
		}
		writeJSON(w, struct {
			*sensormeta.SQLResult
			Plan *explain.Node `json:"plan"`
		}{rs, plan})
		return
	}
	rs, err := s.sys.QuerySQL(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "sql: %v", err)
		return
	}
	writeJSONBody(w, sqlBody(rs))
}

// sqlBody encodes a SQL result byte for byte as encodeJSON encodes it
// (HTML escaped, null for a nil slice) in one pass over its cells.
func sqlBody(rs *sensormeta.SQLResult) []byte {
	size := 64
	for _, row := range rs.Rows {
		size += 16
		for _, c := range row {
			size += len(c) + 12
		}
	}
	buf := append(make([]byte, 0, size), "{\n  \"Columns\": "...)
	buf = appendJSONStrings(buf, rs.Columns, "\n  ")
	buf = append(buf, ",\n  \"Rows\": "...)
	switch {
	case rs.Rows == nil:
		buf = append(buf, "null"...)
	case len(rs.Rows) == 0:
		buf = append(buf, "[]"...)
	default:
		buf = append(buf, '[')
		for i, row := range rs.Rows {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONStrings(append(buf, "\n    "...), row, "\n    ")
		}
		buf = append(buf, "\n  ]"...)
	}
	return append(buf, "\n}\n"...)
}

// appendJSONStrings appends ss as encodeJSON indents a []string that
// starts on a line indented by indent: each element on a line of its own,
// one level deeper.
func appendJSONStrings(buf []byte, ss []string, indent string) []byte {
	switch {
	case ss == nil:
		return append(buf, "null"...)
	case len(ss) == 0:
		return append(buf, "[]"...)
	}
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(append(buf, indent...), "  "...), s)
	}
	return append(append(buf, indent...), ']')
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request, p params) {
	res, err := s.sys.QuerySPARQL(p.str("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "sparql: %v", err)
		return
	}
	writeJSONBody(w, sparqlBody(res))
}

// sparqlBody encodes a SPARQL result byte for byte as encodeJSON encodes
// its Vars and its rows copied into []map[string]string (keys sorted,
// HTML escaped, rows null when there are none), without building those
// copies.
func sparqlBody(res *sparql.Results) []byte {
	buf := appendJSONStrings([]byte("{\n  \"vars\": "), res.Vars, "\n  ")
	buf = append(buf, ",\n  \"rows\": "...)
	if len(res.Rows) == 0 {
		return append(buf, "null\n}\n"...)
	}
	keys := slices.Compact(slices.Sorted(slices.Values(res.Vars)))
	buf = append(buf, '[')
	for i, row := range res.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n    {"...)
		n := 0
		for _, k := range keys {
			t, ok := row[k]
			if !ok {
				continue
			}
			if n > 0 {
				buf = append(buf, ',')
			}
			n++
			buf = appendJSONString(append(buf, "\n      "...), k)
			buf = appendJSONString(append(buf, ": "...), t.Value)
		}
		if n > 0 {
			buf = append(buf, "\n    "...)
		}
		buf = append(buf, '}')
	}
	return append(buf, "\n  ]\n}\n"...)
}

// appendJSONString appends s encoded as encoding/json encodes a string
// with HTML escaping on, byte for byte: \", \\, \b, \f, \n, \r and \t
// by name, other control bytes and <, > and & as \u00XX, invalid UTF-8
// as \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// handleCombined runs a combined SQL + SPARQL + keyword query (POST JSON
// {sparql, pagevar, sql, keywords, user, limit}) and returns the joined
// rows plus the visualization hint.
func (s *Server) handleCombined(w http.ResponseWriter, r *http.Request, _ params) {
	var in struct {
		SPARQL   string `json:"sparql"`
		PageVar  string `json:"pagevar"`
		SQL      string `json:"sql"`
		Keywords string `json:"keywords"`
		User     string `json:"user"`
		Limit    int    `json:"limit"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "combined: %v", err)
		return
	}
	res, err := s.sys.QueryCombined(core.CombinedQuery{
		SPARQL:   in.SPARQL,
		PageVar:  in.PageVar,
		SQL:      in.SQL,
		Keywords: in.Keywords,
		User:     in.User,
		Limit:    in.Limit,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "combined: %v", err)
		return
	}
	cols := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		cols[i] = c.Name
	}
	writeJSON(w, struct {
		Hint    string     `json:"hint"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{Hint: string(res.Hint), Columns: cols, Rows: res.Rows})
}

func (s *Server) handleBulkLoad(w http.ResponseWriter, r *http.Request, p params) {
	author := p.str("author")
	ct := r.Header.Get("Content-Type")
	var report interface{}
	var err error
	switch {
	case strings.Contains(ct, "json"):
		report, err = s.sys.Repo.LoadJSON(r.Body, author)
	default:
		report, err = s.sys.Repo.LoadCSV(r.Body, author)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bulkload: %v", err)
		return
	}
	if err := s.sys.Refresh(); err != nil {
		httpError(w, http.StatusInternalServerError, "bulkload refresh: %v", err)
		return
	}
	writeJSON(w, report)
}

func (s *Server) handleBarChart(w http.ResponseWriter, r *http.Request, p params) {
	s.facetChart(w, p, func(title string, data []viz.Datum) string {
		return viz.BarChart(title, data, 640, 360)
	})
}

func (s *Server) handlePieChart(w http.ResponseWriter, r *http.Request, p params) {
	s.facetChart(w, p, func(title string, data []viz.Datum) string {
		return viz.PieChart(title, data, 400)
	})
}

func (s *Server) facetChart(w http.ResponseWriter, p params, render func(string, []viz.Datum) string) {
	prop := normalizeProperty(p.str("property"))
	// Default path: stream counts over the whole matching set without
	// materializing results. An explicit limit charts only the returned
	// result page.
	if !p.has("limit") {
		counts, matched, err := s.countFacet(p, prop)
		if err != nil {
			writeV1QueryError(w, err)
			return
		}
		writeSVG(w, render(fmt.Sprintf("%s over %d result(s)", prop, matched), viz.DataFromCounts(counts)))
		return
	}
	rs, _, err := s.runSearch(p)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	counts := map[string]int{}
	for _, res := range rs {
		if page, ok := s.sys.Repo.Wiki.Get(res.Title); ok {
			for _, v := range page.PropertyValues(prop) {
				counts[v]++
			}
		}
	}
	writeSVG(w, render(fmt.Sprintf("%s over %d result(s)", prop, len(rs)), viz.DataFromCounts(counts)))
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request, p params) {
	rs, _, err := s.runSearch(p)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	clusters := geo.ClusterMarkers(s.sys.Markers(rs), p.float("cell"))
	writeSVG(w, viz.MapSVG(clusters, 800, 500))
}

func (s *Server) handleGraphSVG(w http.ResponseWriter, r *http.Request, _ params) {
	writeSVG(w, viz.GraphSVG(s.sys.Repo.LinkGraph(), 800, 600))
}

func (s *Server) handleGraphDOT(w http.ResponseWriter, r *http.Request, _ params) {
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, viz.DOT(s.sys.Repo.LinkGraph(), "smr"))
}

func (s *Server) handleHypergraph(w http.ResponseWriter, r *http.Request, p params) {
	writeSVG(w, viz.HypergraphSVG(s.sys.Repo.LinkGraph(), p.str("focus"), 640))
}
