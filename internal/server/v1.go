package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/smr"
)

// The /api/v1 surface: versioned JSON endpoints speaking the compositional
// query AST (internal/query) with keyset-cursor pagination and a
// structured error envelope. The legacy GET routes translate onto the same
// AST and executor (search.LegacyExpr and search.LegacyOptions →
// Engine.Execute), so the two surfaces cannot drift apart.

// v1Error is the structured error envelope every /api/v1 handler returns:
//
//	{"error": {"code": "invalid_query", "message": "…", "field": "query.and[1].property.op"}}
type v1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func writeV1Error(w http.ResponseWriter, status int, code, field, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error v1Error `json:"error"`
	}{v1Error{Code: code, Message: message, Field: field}})
}

// writeV1QueryError maps an executor/validation error onto the envelope:
// query.Error carries its own code and field path; anything else is a
// generic bad request.
func writeV1QueryError(w http.ResponseWriter, err error) {
	var qe *query.Error
	if errors.As(err, &qe) {
		writeV1Error(w, http.StatusBadRequest, qe.Code, qe.Field, qe.Message)
		return
	}
	writeV1Error(w, http.StatusBadRequest, "bad_request", "", err.Error())
}

// resultItem is the JSON shape of one search result, shared by the legacy
// /api/search response and /api/v1/query so their result arrays are
// byte-identical for equivalent requests.
type resultItem struct {
	Title     string            `json:"title"`
	Relevance float64           `json:"relevance"`
	Rank      float64           `json:"rank"`
	Matched   map[string]string `json:"matched,omitempty"`
	Snippet   string            `json:"snippet,omitempty"`
}

// resultItems renders results, attaching snippets for the keyword terms
// when snippetFor is non-empty. An empty result set stays nil, preserving
// the legacy "results": null JSON shape.
func (s *Server) resultItems(rs []search.Result, snippetFor string) []resultItem {
	var out []resultItem
	for _, r := range rs {
		it := resultItem{Title: r.Title, Relevance: r.Relevance, Rank: r.Rank, Matched: r.Matched}
		if snippetFor != "" {
			it.Snippet = s.sys.Engine.SnippetFor(r.Title, snippetFor, 160)
		}
		out = append(out, it)
	}
	return out
}

// v1QueryRequest is the POST /api/v1/query body.
type v1QueryRequest struct {
	// Query is the expression in the canonical AST JSON encoding; absent
	// or null means match-all.
	Query json.RawMessage `json:"query"`
	// Sort is relevance (default), title or rank; Order asc/desc (empty =
	// the sort key's natural direction).
	Sort  string `json:"sort"`
	Order string `json:"order"`
	// Alpha, when present, orders results by the relevance/PageRank fusion
	// alpha·relevance + (1−alpha)·rank (normalized over the matching set),
	// executed inside the engine's top-k selection. Must lie in [0, 1];
	// sort must be omitted or "relevance" (the fusion defines the order).
	// Cursors are bound to the alpha they were minted under.
	Alpha *float64 `json:"alpha"`
	// Limit caps the page (0 = everything); Cursor continues a previous
	// response's nextCursor. Offset is intentionally absent from v1 —
	// pagination is keyset-based.
	Limit  int    `json:"limit"`
	Cursor string `json:"cursor"`
	// Facets lists properties to count over the whole matching set.
	Facets []string `json:"facets"`
	// User is the ACL principal.
	User string `json:"user"`
	// Snippets attaches text snippets built from the expression's keyword
	// leaves.
	Snippets bool `json:"snippets"`
}

// v1SortOptions validates the sort/order strings of a v1 request.
func v1SortOptions(sortBy, order string) (search.SortKey, search.Order, *v1Error) {
	var key search.SortKey
	switch sortBy {
	case "", "relevance":
		key = search.SortRelevance
	case "title":
		key = search.SortTitle
	case "rank":
		key = search.SortRank
	default:
		return "", "", &v1Error{Code: "bad_request", Field: "sort",
			Message: "unknown sort " + strconvQuote(sortBy) + " (want relevance, title or rank)"}
	}
	var ord search.Order
	switch order {
	case "":
		ord = search.OrderDefault
	case "asc":
		ord = search.OrderAsc
	case "desc":
		ord = search.OrderDesc
	default:
		return "", "", &v1Error{Code: "bad_request", Field: "order",
			Message: "unknown order " + strconvQuote(order) + " (want asc or desc)"}
	}
	return key, ord, nil
}

func strconvQuote(s string) string {
	raw, _ := json.Marshal(s)
	return string(raw)
}

// keywordTexts gathers the texts of the expression's positive keyword
// leaves, for snippet construction.
func keywordTexts(e query.Expr) string {
	var texts []string
	var walk func(query.Expr)
	walk = func(e query.Expr) {
		switch v := e.(type) {
		case query.And:
			for _, c := range v.Children {
				walk(c)
			}
		case query.Or:
			for _, c := range v.Children {
				walk(c)
			}
		case query.Keyword:
			texts = append(texts, v.Text)
		}
	}
	walk(e)
	if len(texts) == 0 {
		return ""
	}
	out := texts[0]
	for _, t := range texts[1:] {
		out += " " + t
	}
	return out
}

// handleV1Query serves POST /api/v1/query: one expression, executed with
// candidate pruning, facets and keyset pagination.
func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "", "POST required")
		return
	}
	var in v1QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "", "request body: "+err.Error())
		return
	}
	if in.Limit < 0 {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "limit", "limit must not be negative")
		return
	}
	if in.Alpha != nil && (*in.Alpha < 0 || *in.Alpha > 1) {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "alpha", "alpha must lie in [0, 1]")
		return
	}
	var expr query.Expr = query.All{}
	if len(in.Query) > 0 && string(in.Query) != "null" {
		var err error
		expr, err = query.Unmarshal(in.Query)
		if err != nil {
			writeV1QueryError(w, err)
			return
		}
	}
	key, order, verr := v1SortOptions(in.Sort, in.Order)
	if verr != nil {
		writeV1Error(w, http.StatusBadRequest, verr.Code, verr.Field, verr.Message)
		return
	}
	facets := make([]string, len(in.Facets))
	for i, f := range in.Facets {
		facets[i] = normalizeProperty(f)
	}
	res, err := s.sys.Engine.Execute(expr, search.ExecOptions{
		SortBy: key, Order: order, Alpha: in.Alpha,
		Limit: in.Limit, Cursor: in.Cursor,
		User: in.User, Facets: facets,
		Explain: explainRequested(r),
	})
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	snippetFor := ""
	if in.Snippets {
		snippetFor = keywordTexts(expr)
	}
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
		Results:    s.resultItems(res.Results, snippetFor),
		NextCursor: res.NextCursor,
		Plan:       res.Plan,
	}
	if len(facets) > 0 {
		out.Facets = res.Facets
	}
	writeJSON(w, out)
}

// explainRequested reports whether the request asked for a plan tree via
// the ?explain=1 query parameter (the body shapes stay unchanged, so
// explain can be toggled on any existing request without editing it).
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// handleV1PagesBatch serves POST /api/v1/pages:batch: a slice of page
// writes applied as one repository batch — one mutation-lock hold, one
// group-committed WAL fsync — the bulk-ingest fast path for high-rate
// sensor registration streams. Rows are applied in order; on a row error
// the earlier rows stay applied (and durable) and the envelope's field
// names the failing row index.
func (s *Server) handleV1PagesBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "", "POST required")
		return
	}
	var in struct {
		// Author is the default for rows that do not set their own.
		Author string          `json:"author"`
		Pages  []smr.PageWrite `json:"pages"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "", "request body: "+err.Error())
		return
	}
	if len(in.Pages) == 0 {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "pages", "pages must hold at least one write")
		return
	}
	writes := make([]smr.PageWrite, len(in.Pages))
	for i, p := range in.Pages {
		if p.Author == "" {
			p.Author = in.Author
		}
		writes[i] = p
	}
	pages, err := s.sys.PutPages(writes)
	if len(pages) > 0 {
		s.wrote()
	}
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, "batch_failed",
			fmt.Sprintf("pages[%d]", len(pages)), err.Error())
		return
	}
	type batchPage struct {
		Title     string `json:"title"`
		Revisions int    `json:"revisions"`
	}
	out := struct {
		Count int         `json:"count"`
		Pages []batchPage `json:"pages"`
	}{Count: len(pages), Pages: make([]batchPage, 0, len(pages))}
	for _, p := range pages {
		out.Pages = append(out.Pages, batchPage{Title: p.Title.String(), Revisions: len(p.Revisions)})
	}
	writeJSON(w, out)
}

// handleV1Combined serves POST /api/v1/combined: the combined
// SQL + SPARQL + keyword query of the Query Management module, extended
// with a structured filter expression applied during the join, wrapped in
// the v1 error envelope.
func (s *Server) handleV1Combined(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "", "POST required")
		return
	}
	var in struct {
		SPARQL   string          `json:"sparql"`
		PageVar  string          `json:"pagevar"`
		SQL      string          `json:"sql"`
		Keywords string          `json:"keywords"`
		Filter   json.RawMessage `json:"filter"`
		User     string          `json:"user"`
		Limit    int             `json:"limit"`
		Cursor   string          `json:"cursor"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "", "request body: "+err.Error())
		return
	}
	cq := core.CombinedQuery{
		SPARQL:   in.SPARQL,
		PageVar:  in.PageVar,
		SQL:      in.SQL,
		Keywords: in.Keywords,
		User:     in.User,
		Limit:    in.Limit,
		Cursor:   in.Cursor,
		Explain:  explainRequested(r),
	}
	if len(in.Filter) > 0 && string(in.Filter) != "null" {
		expr, err := query.Unmarshal(in.Filter)
		if err != nil {
			writeV1QueryError(w, err)
			return
		}
		cq.Filter = expr
	}
	res, err := s.sys.QueryCombined(cq)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	cols := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		cols[i] = c.Name
	}
	writeJSON(w, struct {
		Hint       string        `json:"hint"`
		Columns    []string      `json:"columns"`
		Rows       [][]string    `json:"rows"`
		NextCursor string        `json:"nextCursor,omitempty"`
		Plan       *explain.Node `json:"plan,omitempty"`
	}{Hint: string(res.Hint), Columns: cols, Rows: res.Rows, NextCursor: res.NextCursor, Plan: res.Plan})
}
