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
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/relational"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/tagging"
	"repro/internal/viz"
)

// Options configures optional server behaviour.
type Options struct {
	// AutoRefresh, when positive, refreshes the system automatically after
	// write endpoints (/api/pages, /api/tags), debounced by this duration:
	// a burst of writes triggers one refresh that runs AutoRefresh after
	// the last write of the burst. Zero disables (writes require an
	// explicit POST /api/refresh, as before).
	AutoRefresh time.Duration
	// ReadOnly rejects the write endpoints (/api/pages, /api/tags,
	// /bulkload) with a structured 403 pointing at Primary — the follower
	// mode of a read replica.
	ReadOnly bool
	// Primary is the primary server's URL, included in the read-only error
	// envelope so clients know where to send writes.
	Primary string
	// Replica, when set, marks this server as a follower: read responses
	// carry an X-Replica-Lag-Seq header and /api/admin/stats gains a
	// replication block.
	Replica ReplicaSource
	// MaxLagSeq, when positive (and Replica is set), degrades reads to 503
	// once the follower lags more than this many sequence numbers behind
	// the primary (or has never synced) — graceful degradation instead of
	// arbitrarily stale responses. Admin endpoints are exempt.
	MaxLagSeq uint64
}

// Server is the HTTP application. It implements http.Handler.
type Server struct {
	sys    *sensormeta.System
	mux    *http.ServeMux
	opts   Options
	deb    *debouncer
	routes []string
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
	handle := func(pattern string, h http.HandlerFunc) {
		s.routes = append(s.routes, pattern)
		s.mux.HandleFunc(pattern, h)
	}
	handle("/", s.handleHome)
	handle("/page/", s.handlePage)
	handle("/api/search", s.handleSearch)
	handle("/api/autocomplete", s.handleAutocomplete)
	handle("/api/properties", s.handleProperties)
	handle("/api/values", s.handleValues)
	handle("/api/recommend", s.handleRecommend)
	handle("/api/tagcloud", s.handleTagCloudJSON)
	handle("/api/pages", s.handlePutPage)
	handle("/api/tags", s.handleAddTag)
	handle("/api/refresh", s.handleRefresh)
	handle("/api/admin/snapshot", s.handleAdminSnapshot)
	handle("/api/admin/snapshot/latest", s.handleAdminSnapshotLatest)
	handle("/api/admin/stats", s.handleAdminStats)
	handle("/api/admin/wal", s.handleAdminWAL)
	handle("/api/sql", s.handleSQL)
	handle("/api/sparql", s.handleSPARQL)
	handle("/api/combined", s.handleCombined)
	handle("/api/v1/query", s.handleV1Query)
	handle("/api/v1/combined", s.handleV1Combined)
	handle("/api/v1/pages:batch", s.handleV1PagesBatch)
	handle("/bulkload", s.handleBulkLoad)
	handle("/viz/bar.svg", s.handleBarChart)
	handle("/viz/pie.svg", s.handlePieChart)
	handle("/viz/map.svg", s.handleMap)
	handle("/viz/graph.svg", s.handleGraphSVG)
	handle("/viz/graph.dot", s.handleGraphDOT)
	handle("/viz/hypergraph.svg", s.handleHypergraph)
	handle("/viz/tagcloud.html", s.handleTagCloudHTML)
	handle("/viz/taggraph.svg", s.handleTagGraph)
	sort.Strings(s.routes)
	return s
}

// Routes returns the registered route patterns, sorted — the source of
// truth the documentation coverage test checks docs/API.md against.
func (s *Server) Routes() []string { return append([]string(nil), s.routes...) }

// Close stops the auto-refresh debouncer, if any.
func (s *Server) Close() {
	if s.deb != nil {
		s.deb.stop()
	}
}

// ServeHTTP applies the replica gates (read-only writes, lag header,
// max-lag degradation), then dispatches to the router.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.gateReplica(w, r) {
		return
	}
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

func writeJSON(w http.ResponseWriter, v interface{}) {
	// Encode to a buffer first: an encoding failure discovered after the
	// first byte hit the wire could only produce a torn body, so the
	// status and headers are committed only once the payload is whole.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
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

// parseQuery builds a search.Query from URL parameters:
//
//	q          keywords
//	mode       all|any
//	filter     repeated "property:op:value" triples (op ∈ eq,ne,lt,le,gt,ge,contains)
//	namespace  namespace scope
//	category   category scope
//	sort       relevance|title|rank
//	order      asc|desc
//	limit, offset
//	user       ACL principal
func parseQuery(r *http.Request) (search.Query, error) {
	v := r.URL.Query()
	q := search.Query{
		Keywords:  v.Get("q"),
		Namespace: v.Get("namespace"),
		Category:  v.Get("category"),
		User:      v.Get("user"),
	}
	if v.Get("mode") == "any" {
		q.Mode = search.ModeAny
	}
	switch v.Get("sort") {
	case "", "relevance":
		q.SortBy = search.SortRelevance
	case "title":
		q.SortBy = search.SortTitle
	case "rank":
		q.SortBy = search.SortRank
	default:
		return q, fmt.Errorf("unknown sort %q", v.Get("sort"))
	}
	switch v.Get("order") {
	case "":
	case "asc":
		q.Order = search.OrderAsc
	case "desc":
		q.Order = search.OrderDesc
	default:
		return q, fmt.Errorf("unknown order %q", v.Get("order"))
	}
	ops := map[string]search.FilterOp{
		"eq": search.OpEquals, "ne": search.OpNotEqual,
		"lt": search.OpLess, "le": search.OpLessEq,
		"gt": search.OpGreater, "ge": search.OpGreatEq,
		"contains": search.OpContains,
	}
	for _, f := range v["filter"] {
		parts := strings.SplitN(f, ":", 3)
		if len(parts) != 3 {
			return q, fmt.Errorf("filter %q is not property:op:value", f)
		}
		op, ok := ops[parts[1]]
		if !ok {
			return q, fmt.Errorf("unknown filter op %q", parts[1])
		}
		q.Filters = append(q.Filters, search.PropertyFilter{
			Property: normalizeProperty(parts[0]), Op: op, Value: parts[2],
		})
	}
	if lim := v.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", lim)
		}
		q.Limit = n
	}
	if off := v.Get("offset"); off != "" {
		n, err := strconv.Atoi(off)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad offset %q", off)
		}
		q.Offset = n
	}
	return q, nil
}

func (s *Server) runSearch(r *http.Request) ([]search.Result, search.Query, error) {
	res, q, err := s.runSearchFacets(r, nil)
	if err != nil {
		return nil, q, err
	}
	return res.Results, q, nil
}

// runSearchFacets executes the request's query, accumulating facet counts
// for facetProps in the same pass over the matching set (no second
// enumeration, no extra materialization).
func (s *Server) runSearchFacets(r *http.Request, facetProps []string) (*search.ExecResult, search.Query, error) {
	q, err := parseQuery(r)
	if err != nil {
		return nil, q, err
	}
	// alpha rides along inside the query: the engine fuses relevance and
	// PageRank inside its top-k selection, over the whole matching set.
	if alphaStr := r.URL.Query().Get("alpha"); alphaStr != "" {
		alpha, err := strconv.ParseFloat(alphaStr, 64)
		if err != nil {
			return nil, q, fmt.Errorf("bad alpha %q", alphaStr)
		}
		q.Alpha = &alpha
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
func (s *Server) countFacet(r *http.Request, prop string) (map[string]int, int, error) {
	q, err := parseQuery(r)
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

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	// Repeated facet=<property> parameters stream per-property value counts
	// over the whole matching set (not just the returned page), accumulated
	// in the same pass as the results.
	facetProps := r.URL.Query()["facet"]
	for i := range facetProps {
		facetProps[i] = normalizeProperty(facetProps[i])
	}
	res, _, err := s.runSearchFacets(r, facetProps)
	if err != nil {
		httpError(w, http.StatusBadRequest, "search: %v", err)
		return
	}
	out := struct {
		Count   int                       `json:"count"`
		Matched int                       `json:"matched,omitempty"`
		Results []resultItem              `json:"results"`
		Facets  map[string]map[string]int `json:"facets,omitempty"`
	}{Count: len(res.Results), Results: s.resultItems(res.Results, r.URL.Query().Get("q"))}
	if len(facetProps) > 0 {
		out.Facets, out.Matched = res.Facets, res.Matched
	}
	writeJSON(w, out)
}

func (s *Server) handleAutocomplete(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		if n, err := strconv.Atoi(ks); err == nil && n > 0 {
			k = n
		}
	}
	writeJSON(w, s.sys.Autocomplete(prefix, k))
}

// handleProperties lists the distinct property names for the first-level
// dynamic drop-down — alphabetically, or by PageRank-derived importance
// with by=score (the recommendation mechanism's property scores).
func (s *Server) handleProperties(w http.ResponseWriter, r *http.Request) {
	props, err := s.sys.Repo.Properties()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "properties: %v", err)
		return
	}
	if r.URL.Query().Get("by") == "score" {
		props = s.sys.TopProperties(len(props))
	}
	writeJSON(w, props)
}

// handleValues serves the second-level dynamic drop-down: the distinct
// values of one property. With counts=1 the response becomes
// [{value, count}] pairs computed over the pages matching the usual search
// parameters (q, filter, namespace, …) via the streaming facet path, so a
// drill-down menu can show result counts without materializing results.
func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	prop := normalizeProperty(r.URL.Query().Get("property"))
	if prop == "" {
		httpError(w, http.StatusBadRequest, "values: property parameter required")
		return
	}
	if r.URL.Query().Get("counts") == "" {
		vals, err := s.sys.Repo.PropertyValues(prop)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "values: %v", err)
			return
		}
		writeJSON(w, vals)
		return
	}
	counts, _, err := s.countFacet(r, prop)
	if err != nil {
		httpError(w, http.StatusBadRequest, "values: %v", err)
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

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	seeds := r.URL.Query()["seed"]
	if len(seeds) == 0 {
		httpError(w, http.StatusBadRequest, "recommend: at least one seed parameter required")
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		if n, err := strconv.Atoi(ks); err == nil && n > 0 {
			k = n
		}
	}
	writeJSON(w, s.sys.Recommend(seeds, r.URL.Query().Get("user"), k))
}

func cloudOptions(r *http.Request) tagging.CloudOptions {
	opts := tagging.CloudOptions{UsePivot: true}
	v := r.URL.Query()
	if th := v.Get("threshold"); th != "" {
		if f, err := strconv.ParseFloat(th, 64); err == nil && f > 0 {
			opts.Threshold = f
		}
	}
	if mf := v.Get("minfreq"); mf != "" {
		if n, err := strconv.Atoi(mf); err == nil && n > 0 {
			opts.MinFrequency = n
		}
	}
	return opts
}

func (s *Server) handleTagCloudJSON(w http.ResponseWriter, r *http.Request) {
	cloud, err := s.sys.TagCloud(cloudOptions(r))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "tagcloud: %v", err)
		return
	}
	writeJSON(w, cloud)
}

func (s *Server) handleTagCloudHTML(w http.ResponseWriter, r *http.Request) {
	cloud, err := s.sys.TagCloud(cloudOptions(r))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "tagcloud: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, viz.TagCloudHTML(cloud))
}

func (s *Server) handleTagGraph(w http.ResponseWriter, r *http.Request) {
	cloud, err := s.sys.TagCloud(cloudOptions(r))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "taggraph: %v", err)
		return
	}
	writeSVG(w, viz.TagGraphSVG(cloud, 0))
}

func (s *Server) handlePutPage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
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

func (s *Server) handleAddTag(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
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
func (s *Server) handleAdminStats(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
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

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.sys.Refresh(); err != nil {
		httpError(w, http.StatusInternalServerError, "refresh: %v", err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpError(w, http.StatusBadRequest, "sql: q parameter required")
		return
	}
	if explainRequested(r) {
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
	writeJSON(w, rs)
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpError(w, http.StatusBadRequest, "sparql: q parameter required")
		return
	}
	res, err := s.sys.QuerySPARQL(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "sparql: %v", err)
		return
	}
	// Flatten bindings to string maps for JSON.
	out := struct {
		Vars []string            `json:"vars"`
		Rows []map[string]string `json:"rows"`
	}{Vars: res.Vars}
	for _, b := range res.Rows {
		row := make(map[string]string, len(b))
		for k, t := range b {
			row[k] = t.Value
		}
		out.Rows = append(out.Rows, row)
	}
	writeJSON(w, out)
}

// handleCombined runs a combined SQL + SPARQL + keyword query (POST JSON
// {sparql, pagevar, sql, keywords, user, limit}) and returns the joined
// rows plus the visualization hint.
func (s *Server) handleCombined(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
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

func (s *Server) handleBulkLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	author := r.URL.Query().Get("author")
	if author == "" {
		author = "bulkload"
	}
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

func (s *Server) handleBarChart(w http.ResponseWriter, r *http.Request) {
	s.facetChart(w, r, func(title string, data []viz.Datum) string {
		return viz.BarChart(title, data, 640, 360)
	})
}

func (s *Server) handlePieChart(w http.ResponseWriter, r *http.Request) {
	s.facetChart(w, r, func(title string, data []viz.Datum) string {
		return viz.PieChart(title, data, 400)
	})
}

func (s *Server) facetChart(w http.ResponseWriter, r *http.Request, render func(string, []viz.Datum) string) {
	prop := normalizeProperty(r.URL.Query().Get("property"))
	if prop == "" {
		httpError(w, http.StatusBadRequest, "chart: property parameter required")
		return
	}
	// Default path: stream counts over the whole matching set without
	// materializing results. An explicit limit charts only the returned
	// result page.
	if r.URL.Query().Get("limit") == "" {
		counts, matched, err := s.countFacet(r, prop)
		if err != nil {
			httpError(w, http.StatusBadRequest, "chart: %v", err)
			return
		}
		writeSVG(w, render(fmt.Sprintf("%s over %d result(s)", prop, matched), viz.DataFromCounts(counts)))
		return
	}
	rs, _, err := s.runSearch(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "chart: %v", err)
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

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	rs, _, err := s.runSearch(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "map: %v", err)
		return
	}
	markers := s.sys.Markers(rs)
	cell := 0.05
	if cs := r.URL.Query().Get("cell"); cs != "" {
		if f, err := strconv.ParseFloat(cs, 64); err == nil && f >= 0 {
			cell = f
		}
	}
	clusters := geo.ClusterMarkers(markers, cell)
	writeSVG(w, viz.MapSVG(clusters, 800, 500))
}

func (s *Server) handleGraphSVG(w http.ResponseWriter, r *http.Request) {
	writeSVG(w, viz.GraphSVG(s.sys.Repo.LinkGraph(), 800, 600))
}

func (s *Server) handleGraphDOT(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, viz.DOT(s.sys.Repo.LinkGraph(), "smr"))
}

func (s *Server) handleHypergraph(w http.ResponseWriter, r *http.Request) {
	focus := r.URL.Query().Get("focus")
	writeSVG(w, viz.HypergraphSVG(s.sys.Repo.LinkGraph(), focus, 640))
}
