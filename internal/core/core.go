// Package core implements the Query Management module of the paper's
// Fig. 1 — the piece between the query interface and the stores. Queries
// "are processed using a combination of SQL and SPARQL query languages
// since the sensor metadata information is stored in both a relational
// database and RDF graphs": a CombinedQuery carries an optional SPARQL
// part (structural selection over the RDF graph), an optional SQL part
// (attribute computation over the relational projection), and an optional
// keyword part; the manager executes each against its store, joins the
// partial results on page titles, applies the ranking, and decides which
// visualization fits the result shape (table, map, chart, graph), which is
// how the original system routed results to the Google Maps/Charts,
// GraphViz and HyperGraph tools.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/sparql"
)

// CombinedQuery is one request through the Query Management module. Any
// subset of the four parts may be present; absent parts do not constrain
// the result. The parts AND together.
type CombinedQuery struct {
	// SPARQL is a SELECT whose PageVar variable binds page IRIs
	// (smr://page/…). Other projected variables become output columns.
	SPARQL string
	// PageVar names the variable carrying page IRIs. Empty means "page".
	PageVar string
	// SQL is a SELECT whose first column is a page title; remaining
	// columns become output columns.
	SQL string
	// Keywords restricts to full-text matches.
	Keywords string
	// Filter is an optional structured filter expression (the shared query
	// AST) applied during the join: only pages it matches survive. When it
	// is the only part present, its candidate-pruned execution drives the
	// whole query.
	Filter query.Expr
	// User is the ACL principal.
	User string
	// Limit caps the joined result (0 = unlimited).
	Limit int
	// Cursor continues a previous result's NextCursor: the rows strictly
	// after that position in the join's total order (PageRank descending,
	// title tie-break). The cursor is signature-bound to the full join spec
	// (SPARQL, page variable, SQL, keywords, filter expression, user), so a
	// cursor minted for one combined query cannot page another.
	Cursor string
	// Explain attaches a plan tree to the result: one node per part (the SQL
	// part embeds the relational planner's tree, a driving filter part the
	// search executor's) under the join. Pure observation — it never changes
	// what executes or the cursor signature.
	Explain bool
}

// Column is one output column of a combined result.
type Column struct {
	Name    string
	Numeric bool // every non-empty cell parses as a number
}

// Result is the joined output.
type Result struct {
	Columns []Column   // first column is always "page"
	Rows    [][]string // cell values, row-aligned with Titles
	Titles  []string   // page titles (== first column values)
	Hint    Hint
	// NextCursor pages the join: pass it back as CombinedQuery.Cursor for
	// the rows after this page. Empty when this page exhausts the join (or
	// Limit was 0).
	NextCursor string
	// Plan is the executed plan tree (only when CombinedQuery.Explain): the
	// join root with one child per part, estimated versus actual rows.
	Plan *explain.Node
}

// Hint tells the interface which visualization the paper's system would
// route this result to.
type Hint string

// Visualization hints.
const (
	HintTable Hint = "table" // default tabular rendering
	HintMap   Hint = "map"   // results carry positions
	HintChart Hint = "chart" // categorical column with few distinct values
	HintGraph Hint = "graph" // results are densely interlinked
)

// Manager executes combined queries. Joined results are ordered by the
// PageRank scores installed in the search engine (search.Engine.SetRanks).
type Manager struct {
	repo   *smr.Repository
	engine *search.Engine
}

// NewManager wires a manager to a repository and its search engine.
func NewManager(repo *smr.Repository, engine *search.Engine) *Manager {
	return &Manager{repo: repo, engine: engine}
}

// Execute runs a combined query: each present part produces a candidate
// set (and attribute columns); candidates intersect; rows join on title;
// the structured Filter expression — if any — is applied during the join;
// ordering is PageRank-descending with title tie-breaks.
func (m *Manager) Execute(q CombinedQuery) (*Result, error) {
	if q.SPARQL == "" && q.SQL == "" && strings.TrimSpace(q.Keywords) == "" && q.Filter == nil {
		return nil, fmt.Errorf("core: combined query needs at least one of SPARQL, SQL, keywords, filter")
	}
	if q.Filter != nil {
		if err := query.Validate(q.Filter); err != nil {
			return nil, fmt.Errorf("core: filter part: %w", err)
		}
	}
	pageVar := q.PageVar
	if pageVar == "" {
		pageVar = "page"
	}
	// Keyset pagination reuses the executor's cursor machinery: the
	// signature binds the cursor to the full join spec, the payload carries
	// the last row's sort keys.
	var cur *combinedCursor
	sig, err := m.cursorSignature(q, pageVar)
	if err != nil {
		return nil, err
	}
	if q.Cursor != "" {
		var p combinedCursor
		if err := search.DecodeCursorToken(q.Cursor, &p); err != nil {
			return nil, err
		}
		if p.Sig != sig {
			return nil, &query.Error{Code: "bad_cursor", Field: "cursor",
				Message: "cursor was issued for a different combined query"}
		}
		cur = &p
	}

	type attrs map[string]string
	// candidate sets per part; nil means "part absent".
	var sets []map[string]attrs
	var plan *explain.Node
	if q.Explain {
		plan = explain.New("CombinedJoin", "intersect on page, order=pagerank desc")
	}
	var extraCols []string
	seenCol := map[string]bool{}
	addCol := func(c string) {
		if c != "" && c != "page" && !seenCol[c] {
			seenCol[c] = true
			extraCols = append(extraCols, c)
		}
	}

	// The SPARQL and SQL parts read one repository state: both store calls
	// run under the repository's read lock, so no write lands between
	// them. The keyword and filter parts below read the search engine,
	// which reflects the last refresh.
	var (
		sres              *sparql.Results
		rs                *relational.ResultSet
		sqlPlan           *explain.Node
		sparqlErr, sqlErr error
	)
	m.repo.Read(func() {
		if q.SPARQL != "" {
			if sres, sparqlErr = m.repo.QuerySPARQL(q.SPARQL); sparqlErr != nil {
				return
			}
		}
		if q.SQL != "" {
			if q.Explain {
				rs, sqlPlan, sqlErr = m.repo.DB.QueryWith(q.SQL, relational.QueryOptions{Explain: true})
			} else {
				rs, sqlErr = m.repo.QuerySQL(q.SQL)
			}
		}
	})

	if q.SPARQL != "" {
		if sparqlErr != nil {
			return nil, fmt.Errorf("core: SPARQL part: %w", sparqlErr)
		}
		hasVar := false
		for _, v := range sres.Vars {
			if v == pageVar {
				hasVar = true
			} else {
				addCol("sparql." + v)
			}
		}
		if !hasVar {
			return nil, fmt.Errorf("core: SPARQL part does not project ?%s", pageVar)
		}
		set := map[string]attrs{}
		for _, b := range sres.Rows {
			term, ok := b[pageVar]
			if !ok {
				continue
			}
			title, ok := smr.TitleFromIRI(term)
			if !ok {
				continue
			}
			a, exists := set[title]
			if !exists {
				a = attrs{}
				set[title] = a
			}
			for _, v := range sres.Vars {
				if v == pageVar {
					continue
				}
				if t, bound := b[v]; bound {
					a["sparql."+v] = t.Value
				}
			}
		}
		sets = append(sets, set)
		if plan != nil {
			// No cost model reaches into the RDF store, so the SPARQL part
			// reports only its actual candidate count.
			n := explain.New("SPARQLPart", "?"+pageVar+" over RDF graph")
			n.Act = len(set)
			plan.Add(n)
		}
	}

	if q.SQL != "" {
		if sqlErr != nil {
			return nil, fmt.Errorf("core: SQL part: %w", sqlErr)
		}
		if len(rs.Columns) == 0 {
			return nil, fmt.Errorf("core: SQL part returns no columns")
		}
		for _, c := range rs.Columns[1:] {
			addCol("sql." + c)
		}
		set := map[string]attrs{}
		for _, row := range rs.Rows {
			title := row[0].String()
			a, exists := set[title]
			if !exists {
				a = attrs{}
				set[title] = a
			}
			for i, c := range rs.Columns[1:] {
				a["sql."+c] = row[i+1].String()
			}
		}
		sets = append(sets, set)
		if plan != nil {
			n := explain.New("SQLPart", "first column joins on page title")
			n.Act = len(set)
			if sqlPlan != nil {
				n.Est = sqlPlan.Est
				n.Add(sqlPlan)
			}
			plan.Add(n)
		}
	}

	// The keyword part is cost-based: it drives (a full-text search
	// materializes its whole match set) only when its posting-size estimate
	// undercuts every candidate set the other parts already produced.
	// Otherwise the smaller set bounds the join and keywords degrade to a
	// per-title probe applied during the join — same matches, same scores,
	// never an enumeration of the posting lists.
	var kwProbe func(string) (float64, bool)
	var kwNode *explain.Node
	if strings.TrimSpace(q.Keywords) != "" {
		addCol("relevance")
		kwEst := m.engine.EstimateMatches(query.Keyword{Text: q.Keywords})
		smallest := -1
		for _, set := range sets {
			if smallest < 0 || len(set) < smallest {
				smallest = len(set)
			}
		}
		if smallest < 0 || kwEst <= smallest {
			res, err := m.engine.Execute(query.Keyword{Text: q.Keywords}, search.ExecOptions{User: q.User})
			if err != nil {
				return nil, fmt.Errorf("core: keyword part: %w", err)
			}
			set := map[string]attrs{}
			for _, h := range res.Results {
				set[h.Title] = attrs{"relevance": strconv.FormatFloat(h.Relevance, 'f', 4, 64)}
			}
			sets = append(sets, set)
			if plan != nil {
				kwNode = explain.New("KeywordPart", "drives: full-text search")
				kwNode.Est, kwNode.Act = kwEst, len(set)
				plan.Add(kwNode)
			}
		} else {
			kwProbe = m.engine.CompileScorer(q.Keywords, search.ModeAll)
			if plan != nil {
				kwNode = explain.New("KeywordPart",
					fmt.Sprintf("probe: estimate %d exceeds smallest part %d", kwEst, smallest))
				kwNode.Est = kwEst
				plan.Add(kwNode)
			}
		}
	}

	// The structured filter: when it is the only part, its candidate-pruned
	// execution produces the candidate set outright; otherwise it is
	// applied as a per-title predicate during the join below.
	filterInJoin := false
	var filterNode *explain.Node
	if q.Filter != nil {
		if len(sets) == 0 {
			res, err := m.engine.Execute(q.Filter, search.ExecOptions{User: q.User, Explain: q.Explain})
			if err != nil {
				return nil, fmt.Errorf("core: filter part: %w", err)
			}
			set := map[string]attrs{}
			for _, r := range res.Results {
				set[r.Title] = attrs{}
			}
			sets = append(sets, set)
			if plan != nil {
				n := explain.New("FilterPart", "drives: candidate-pruned execution")
				n.Act = len(set)
				if res.Plan != nil {
					n.Est = res.Plan.Est
					n.Add(res.Plan)
				}
				plan.Add(n)
			}
		} else {
			filterInJoin = true
			if plan != nil {
				filterNode = explain.New("FilterPart", "predicate during join")
				plan.Add(filterNode)
			}
		}
	}

	// Intersect smallest set first — the cheapest probe order. Attribute
	// keys are disjoint across parts (sparql.*, sql.*, relevance), so the
	// merge order cannot change any cell.
	sort.SliceStable(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })

	// Intersect candidate sets, merging attribute maps.
	joined := sets[0]
	for _, set := range sets[1:] {
		next := map[string]attrs{}
		for title, a := range joined {
			if b, ok := set[title]; ok {
				merged := attrs{}
				for k, v := range a {
					merged[k] = v
				}
				for k, v := range b {
					merged[k] = v
				}
				next[title] = merged
			}
		}
		joined = next
	}

	// ACL and structured filter, order by PageRank then title. The
	// filter's keyword matchers are compiled once for the whole join.
	var filterMatch func(string) bool
	if filterInJoin {
		filterMatch = m.engine.CompileMatcher(q.Filter)
	}
	titles := make([]string, 0, len(joined))
	probeMatched, filterPassed := 0, 0
	for title := range joined {
		if !m.repo.ACL.CanRead(q.User, title) {
			continue
		}
		if kwProbe != nil {
			// The non-driving keyword part: score just this candidate. The
			// formatting matches the driving path byte for byte.
			score, ok := kwProbe(title)
			if !ok {
				continue
			}
			probeMatched++
			joined[title]["relevance"] = strconv.FormatFloat(score, 'f', 4, 64)
		}
		if filterMatch != nil {
			if !filterMatch(title) {
				continue
			}
			filterPassed++
		}
		titles = append(titles, title)
	}
	if plan != nil {
		if kwProbe != nil && kwNode != nil {
			kwNode.Act = probeMatched
		}
		if filterNode != nil {
			filterNode.Act = filterPassed
		}
		// The smallest part bounds the join, so it doubles as the estimate.
		plan.Est, plan.Act = len(sets[0]), len(titles)
	}
	// One read of the engine's ranks orders the rows, cuts at the cursor
	// and mints the next cursor, even while a refresh installs new ones.
	scores := m.engine.Ranks()
	rowLess := func(scoreA float64, titleA string, scoreB float64, titleB string) bool {
		if scoreA != scoreB {
			return scoreA > scoreB
		}
		return titleA < titleB
	}
	sort.Slice(titles, func(i, j int) bool {
		return rowLess(scores[titles[i]], titles[i], scores[titles[j]], titles[j])
	})
	if cur != nil {
		// Rows at or before the cursor position form a prefix of the sorted
		// order; binary-search the first row strictly after it.
		from := sort.Search(len(titles), func(i int) bool {
			return rowLess(cur.Score, cur.Title, scores[titles[i]], titles[i])
		})
		titles = titles[from:]
	}
	nextCursor := ""
	if q.Limit > 0 && len(titles) > q.Limit {
		titles = titles[:q.Limit]
		last := titles[len(titles)-1]
		nextCursor = search.EncodeCursorToken(combinedCursor{
			Score: scores[last], Title: last, Sig: sig,
		})
	}

	res := &Result{Titles: titles, NextCursor: nextCursor, Plan: plan}
	res.Columns = append(res.Columns, Column{Name: "page"})
	for _, c := range extraCols {
		res.Columns = append(res.Columns, Column{Name: c, Numeric: true})
	}
	for _, title := range titles {
		row := make([]string, len(res.Columns))
		row[0] = title
		for i, c := range res.Columns[1:] {
			v := joined[title][c.Name]
			row[i+1] = v
			if v != "" {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					res.Columns[i+1].Numeric = false
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// Columns with no values are not numeric.
	for i := range res.Columns[1:] {
		all := true
		for _, row := range res.Rows {
			if row[i+1] != "" {
				all = false
			}
		}
		if all {
			res.Columns[i+1].Numeric = false
		}
	}

	res.Hint = m.chooseHint(res)
	return res, nil
}

// combinedCursor is the keyset-cursor payload of the combined-query join:
// the sort keys (PageRank score, title) of the last row served, plus the
// join-spec signature.
type combinedCursor struct {
	Score float64 `json:"p"`
	Title string  `json:"t"`
	Sig   uint64  `json:"g"`
}

// cursorSignature fingerprints a combined query's full join spec — every
// part that shapes the joined row set and its order.
func (m *Manager) cursorSignature(q CombinedQuery, pageVar string) (uint64, error) {
	filterJSON := ""
	if q.Filter != nil {
		raw, err := query.Marshal(q.Filter)
		if err != nil {
			return 0, fmt.Errorf("core: filter part: %w", err)
		}
		filterJSON = string(raw)
	}
	return search.CursorSignature("combined", q.SPARQL, pageVar, q.SQL, q.Keywords, filterJSON, q.User), nil
}

// resultLinks counts the links among a result's pages: for each title
// that names a stored page by its canonical title, the distinct targets of
// its outgoing page and semantic links that are result titles too. This is
// the count of result-to-result successors in the repository's LinkGraph,
// read from the result pages alone.
func resultLinks(repo *smr.Repository, titles []string) int {
	inSet := make(map[string]bool, len(titles))
	for _, t := range titles {
		inSet[t] = true
	}
	links := 0
	var targets []string
	for _, t := range titles {
		page, ok := repo.Wiki.Get(t)
		if !ok || page.Title.String() != t {
			continue
		}
		targets = targets[:0]
		smr.PageEdges(page, func(target string, _ graph.LinkKind) {
			if inSet[target] && !slices.Contains(targets, target) {
				targets = append(targets, target)
			}
		})
		links += len(targets)
	}
	return links
}

// chooseHint routes a result to the visualization the paper's system would
// pick: map when results carry positions, graph when they interlink
// densely, chart when a low-cardinality categorical column exists, table
// otherwise.
func (m *Manager) chooseHint(res *Result) Hint {
	if len(res.Titles) == 0 {
		return HintTable
	}
	positioned := 0
	for _, title := range res.Titles {
		if page, ok := m.repo.Wiki.Get(title); ok {
			if len(page.PropertyValues("latitude")) > 0 && len(page.PropertyValues("longitude")) > 0 {
				positioned++
			}
		}
	}
	if positioned*2 >= len(res.Titles) && positioned >= 2 {
		return HintMap
	}

	// Dense interlinking: count result-to-result links, each linked pair
	// once whatever the link kinds, from the result pages' own edges.
	if resultLinks(m.repo, res.Titles) >= len(res.Titles) {
		return HintGraph
	}

	// Low-cardinality non-numeric column → chart.
	for ci, col := range res.Columns[1:] {
		if col.Numeric {
			continue
		}
		distinct := map[string]bool{}
		filled := 0
		for _, row := range res.Rows {
			if v := row[ci+1]; v != "" {
				distinct[v] = true
				filled++
			}
		}
		if filled == len(res.Rows) && len(distinct) >= 2 && len(distinct) <= 8 && len(res.Rows) > len(distinct) {
			return HintChart
		}
	}
	return HintTable
}
