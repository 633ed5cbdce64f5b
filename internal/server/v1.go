package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

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

// v1Error is the structured error envelope every route returns:
//
//	{"error": {"code": "invalid_query", "message": "…", "field": "query.and[1].property.op"}}
type v1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
	// Primary names the primary in a follower's read_only refusal.
	Primary string `json:"primary,omitempty"`
}

func (e *v1Error) Error() string { return e.Message }

func writeV1Error(w http.ResponseWriter, status int, code, field, message string) {
	writeEnvelope(w, status, v1Error{Code: code, Message: message, Field: field})
}

func writeEnvelope(w http.ResponseWriter, status int, e v1Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error v1Error `json:"error"`
	}{e})
}

// decodeV1 strictly decodes a v1 request body, exactly one JSON value,
// into dst; on failure it answers 400 bad_request itself and reports
// false.
func decodeV1(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "", "request body: "+err.Error())
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "", "request body: data after the JSON value")
		return false
	}
	return true
}

// writeV1QueryError maps a parameter, executor or validation error onto
// the envelope: a v1Error is written as it is, a query.Error carries its
// own code and field path, and anything else is a generic bad request.
func writeV1QueryError(w http.ResponseWriter, err error) {
	var ve *v1Error
	var qe *query.Error
	switch {
	case errors.As(err, &ve):
		writeEnvelope(w, http.StatusBadRequest, *ve)
		return
	case errors.As(err, &qe):
		writeV1Error(w, http.StatusBadRequest, qe.Code, qe.Field, qe.Message)
		return
	}
	writeV1Error(w, http.StatusBadRequest, "bad_request", "", err.Error())
}

// snippets returns the snippet source for keyword text: each result's
// snippet of the page text around the terms, or nil when text is empty.
func (s *Server) snippets(text string) func(title string) string {
	if text == "" {
		return nil
	}
	return func(title string) string { return s.sys.Engine.SnippetFor(title, text, 160) }
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
func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request, p params) {
	var in v1QueryRequest
	if !decodeV1(w, r, &in) {
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
	sp, verr := parseParams([]param{sortParam, orderParam}, url.Values{"sort": {in.Sort}, "order": {in.Order}})
	if verr != nil {
		writeEnvelope(w, http.StatusBadRequest, *verr)
		return
	}
	facets := make([]string, len(in.Facets))
	for i, f := range in.Facets {
		facets[i] = normalizeProperty(f)
	}
	res, err := s.sys.Engine.Execute(expr, search.ExecOptions{
		SortBy: search.SortKey(sp.str("sort")), Order: search.Order(sp.str("order")),
		Alpha: in.Alpha, Limit: in.Limit, Cursor: in.Cursor,
		User: in.User, Facets: facets, Explain: p.flag("explain"),
	})
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	var snippet func(string) string
	if in.Snippets {
		snippet = s.snippets(keywordTexts(expr))
	}
	body, err := v1QueryBody(res, len(facets) > 0, snippet)
	writeEncoded(w, body, err)
}

// handleV1PagesBatch serves POST /api/v1/pages:batch: a slice of page
// writes applied as one repository batch — one mutation-lock hold, one
// group-committed WAL fsync — the bulk-ingest fast path for high-rate
// sensor registration streams. Rows are applied in order; on a row error
// the earlier rows stay applied (and durable) and the envelope's field
// names the failing row index.
func (s *Server) handleV1PagesBatch(w http.ResponseWriter, r *http.Request, _ params) {
	var in struct {
		// Author is the default for rows that do not set their own.
		Author string          `json:"author"`
		Pages  []smr.PageWrite `json:"pages"`
	}
	if !decodeV1(w, r, &in) {
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
func (s *Server) handleV1Combined(w http.ResponseWriter, r *http.Request, p params) {
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
	if !decodeV1(w, r, &in) {
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
		Explain:  p.flag("explain"),
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
