// Package sensormeta is the public facade of the sensor-metadata search
// system reproduced from "Advanced Search, Visualization and Tagging of
// Sensor Metadata" (Paparrizos, Jeung, Aberer; ICDE 2011). One System value
// wires together every subsystem the paper describes:
//
//   - the Sensor Metadata Repository (wiki + relational + RDF projections,
//     bulk loading, access control) — internal/smr;
//   - combined SQL + SPARQL querying — internal/relational, internal/sparql;
//   - the advanced search interface (keyword TF-IDF, property filters,
//     facets, autocomplete) — internal/search;
//   - the compositional query AST every execution layer shares (boolean
//     tree over typed leaves, canonical JSON, normalization, selectivity
//     reordering) — internal/query;
//   - PageRank over the double link structure, with the six solvers of the
//     paper's Fig. 3 — internal/pagerank, internal/ranking;
//   - the recommendation mechanism — internal/recommend;
//   - the dynamic tagging pipeline (cosine similarity → tag graph →
//     Bron–Kerbosch cliques → Eq.-6 font sizes) — internal/tagging;
//   - visualization artefacts (charts, maps, graphs, hypergraphs, clouds) —
//     internal/viz, internal/geo.
//
// Quickstart:
//
//	sys, _ := sensormeta.New()
//	sys.PutPage("Sensor:W1", "me", "[[measures::wind speed]]", "")
//	sys.Refresh()
//	results, _ := sys.Search(search.Query{Keywords: "wind"})
//
// # Incremental refresh
//
// The paper's system re-ranks continuously as "new metadata pages are
// continuously created", so Refresh is built around a change journal
// rather than a rebuild. Every Repository mutation (PutPage, DeletePage —
// bulk loading and the HTTP server funnel through these) appends a
// sequence-numbered entry to smr.Journal recording the page touched and
// whether its outgoing link structure changed. Refresh consumes the
// journal:
//
//   - the search Engine applies the delta in O(changed pages): each index
//     document records its own term list, posting lists stay doc-sorted,
//     and the autocomplete trie refcounts its entries, so pages can be
//     re-indexed or dropped without touching the rest of the corpus;
//   - PageRank is skipped entirely when no change touched the link graph,
//     and warm-started from the previous score vector (Gauss–Seidel,
//     pagerank.GaussSeidelFrom) when it did;
//   - the Recommender retracts and re-adds only the changed pages'
//     property-score contributions (recommend.Recommender.Update), and a
//     new PageRank vector rescores the retained property sets without a
//     corpus rescan (SetRanks);
//   - the tagging Pipeline re-reads only the changed pages' tag sets,
//     recomputes similarity rows only for tags whose page sets moved, and
//     reuses Bron–Kerbosch results for untouched graph components
//     (tagging.Pipeline.Update).
//
// After a successful refresh the journal prefix every consumer has applied
// is trimmed. If a consumer lags past the journal's retention bound it
// falls back to a full rebuild automatically; RefreshFull forces that
// from-scratch path explicitly for all of them. Stats reports where each
// consumer stands and how often each path ran.
package sensormeta

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/recommend"
	"repro/internal/relational"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/sparql"
	"repro/internal/tagging"
	"repro/internal/wiki"
)

// System is a fully wired instance of the metadata search stack. Every
// derived consumer is built once, when the System is, and updated in place
// afterwards, so the fields below are never reassigned and are safe to
// read from any goroutine.
type System struct {
	Repo        *smr.Repository
	Engine      *search.Engine
	Ranker      *ranking.Ranker
	Recommender *recommend.Recommender
	Tags        *tagging.Pipeline
	// QueryManager is the combined SQL+SPARQL+keyword execution path (the
	// Query Management module of the paper's Fig. 1).
	QueryManager *core.Manager

	// refreshMu serializes Refresh/RefreshFull: two concurrent refreshes
	// (e.g. two POST /api/refresh) would interleave their consumer updates.
	refreshMu sync.Mutex
	// stats accumulates refresh observability counters (guarded by
	// refreshMu), surfaced by Stats and the server's /api/admin/stats.
	stats refreshCounters
}

// refreshCounters are the System-level refresh statistics; consumer-level
// counters live in the recommender and tagging pipeline themselves.
type refreshCounters struct {
	Refreshes       int
	FullRefreshes   int
	PagesApplied    int
	EngineRebuilds  int
	PageRankSkipped int
	PageRankWarm    int
	PageRankCold    int
}

// RefreshStats is the observability snapshot reported by Stats: where every
// journal consumer stands, what the refresh paths have done so far, and the
// per-consumer delta-vs-rebuild counters.
type RefreshStats struct {
	// Journal positions.
	JournalSeq      uint64 `json:"journalSeq"`      // latest repository mutation
	JournalRetained int    `json:"journalRetained"` // entries not yet trimmed
	EngineSeq       uint64 `json:"engineSeq"`
	RankerSeq       uint64 `json:"rankerSeq"`
	RecommenderSeq  uint64 `json:"recommenderSeq"`
	TaggingSeq      uint64 `json:"taggingSeq"`

	// Refresh path counters.
	Refreshes       int `json:"refreshes"`
	FullRefreshes   int `json:"fullRefreshes"`
	PagesApplied    int `json:"pagesApplied"`
	EngineRebuilds  int `json:"engineRebuilds"`
	PageRankSkipped int `json:"pagerankSkipped"`
	PageRankWarm    int `json:"pagerankWarm"`
	PageRankCold    int `json:"pagerankCold"`

	Recommender recommend.Stats `json:"recommender"`
	Tagging     tagging.Stats   `json:"tagging"`

	// WAL reports the durable-journal position and segment counters
	// (zero-valued, Enabled false, for in-memory systems).
	WAL smr.WALStats `json:"wal"`
}

// Stats reports the current refresh observability counters.
func (s *System) Stats() RefreshStats {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	st := RefreshStats{
		JournalSeq:      s.Repo.LastSeq(),
		JournalRetained: s.Repo.Journal().Len(),
		EngineSeq:       s.Engine.Seq(),
		RankerSeq:       s.Ranker.Seq(),
		Refreshes:       s.stats.Refreshes,
		FullRefreshes:   s.stats.FullRefreshes,
		PagesApplied:    s.stats.PagesApplied,
		EngineRebuilds:  s.stats.EngineRebuilds,
		PageRankSkipped: s.stats.PageRankSkipped,
		PageRankWarm:    s.stats.PageRankWarm,
		PageRankCold:    s.stats.PageRankCold,
		Recommender:     s.Recommender.Stats(),
		Tagging:         s.Tags.Stats(),
		WAL:             s.Repo.WALStats(),
	}
	st.RecommenderSeq = st.Recommender.Seq
	st.TaggingSeq = st.Tagging.Seq
	return st
}

// New creates an empty system.
func New() (*System, error) {
	repo, err := smr.New()
	if err != nil {
		return nil, err
	}
	return wire(repo)
}

// Open restores a system from a durable data directory (smr.Open): the
// newest snapshot plus the write-ahead-log tail past it. The first Refresh
// runs inside Open and is incremental — every derived consumer catches up
// by applying the restored journal, with no RefreshFull/Engine.Rebuild —
// so a cold-started replica is query-ready in time bounded by the snapshot
// size and the tail length, not by the full write history. Close the
// system when done so the log is flushed.
func Open(dir string, opts smr.DurableOptions) (*System, error) {
	repo, err := smr.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s, err := wire(repo)
	if err != nil {
		repo.Close()
		return nil, err
	}
	return s, nil
}

// OpenShards returns Open(dir, opts); n is ignored.
//
// Deprecated: the search engine has one index. Use Open.
func OpenShards(dir string, opts smr.DurableOptions, n int) (*System, error) { return Open(dir, opts) }

// wire builds the derived stack around a repository and brings it current
// through the incremental refresh path.
func wire(repo *smr.Repository) (*System, error) {
	s := assemble(repo)
	if err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// assemble builds every derived consumer once, before any PageRank solve:
// the ranker starts stale, so the first Refresh or RefreshFull solves and
// installs the scores.
func assemble(repo *smr.Repository) *System {
	s := &System{Repo: repo}
	s.Engine = search.NewEngine(repo)
	s.Ranker = ranking.New(repo)
	s.Recommender = recommend.New(repo, nil)
	s.Tags = tagging.NewPipeline(repo, true)
	s.QueryManager = core.NewManager(repo, s.Engine)
	return s
}

// Close releases the repository's durable resources (the write-ahead log).
// A no-op for in-memory systems.
func (s *System) Close() error { return s.Repo.Close() }

// QueryCombined runs a combined SQL + SPARQL + keyword query through the
// Query Management module and returns the joined, ranked, ACL-filtered
// result with its visualization hint.
func (s *System) QueryCombined(q core.CombinedQuery) (*core.Result, error) {
	return s.QueryManager.Execute(q)
}

// PutPage writes a page through the repository (all projections update).
// Call Refresh afterwards to make it searchable and ranked.
func (s *System) PutPage(title, author, text, comment string) (*wiki.Page, error) {
	return s.Repo.PutPage(title, author, text, comment)
}

// PutPages writes a batch of pages as one repository batch — one mutation
// lock hold, one group-committed WAL fsync (smr.Repository.PutPages). Call
// Refresh afterwards to make them searchable and ranked.
func (s *System) PutPages(writes []smr.PageWrite) ([]*wiki.Page, error) {
	return s.Repo.PutPages(writes)
}

// Refresh brings every derived structure up to date with the repository —
// the equivalent of the original system's periodic re-rank ("Pagerank
// scores need to be updated regularly as new metadata pages are
// continuously created"). It is incremental: the search index and trie
// apply only the journalled delta, PageRank is skipped when no change
// touched the link graph and warm-started from the previous score vector
// when one did, and the recommender refreshes only when something changed.
// Cost is O(changed pages), not O(corpus); RefreshFull is the from-scratch
// equivalent.
func (s *System) Refresh() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	stats := s.Engine.Update()
	s.stats.Refreshes++
	s.stats.PagesApplied += stats.Applied
	if stats.Full {
		s.stats.EngineRebuilds++
	}
	// The ranker consumes the same journal delta: PageRank is solved only
	// when some change moved a link (or no solve has succeeded since the
	// last one did), warm-started from the previous scores.
	solve, err := s.Ranker.Update()
	if err != nil {
		return fmt.Errorf("sensormeta: refresh: %w", err)
	}
	switch solve {
	case ranking.Skipped:
		s.stats.PageRankSkipped++
	case ranking.Warm:
		s.stats.PageRankWarm++
	case ranking.Cold:
		s.stats.PageRankCold++
	}
	if solve != ranking.Skipped {
		ranks := s.Ranker.Scores()
		s.Engine.SetRanks(ranks)
		s.Recommender.SetRanks(ranks)
	}
	// The recommender and the tagging pipeline consume the same journal
	// delta, so property weights and tag clouds stay O(changed pages).
	s.Recommender.Update()
	if _, err := s.Tags.Update(); err != nil {
		return fmt.Errorf("sensormeta: refresh: %w", err)
	}
	s.trimJournal()
	return nil
}

// trimJournal releases the journal prefix every consumer has applied.
// Caller holds refreshMu.
func (s *System) trimJournal() {
	s.Repo.Journal().TrimTo(min(s.Engine.Seq(), s.Ranker.Seq(), s.Recommender.Seq(), s.Tags.Seq()))
}

// RefreshFull rebuilds the search index from scratch and recomputes
// PageRank cold — the pre-incremental behaviour, kept as the recovery path
// and as the baseline the incremental benchmarks compare against.
func (s *System) RefreshFull() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.Engine.Rebuild()
	s.stats.Refreshes++
	s.stats.FullRefreshes++
	// The rebuild consumed the journal; if the solve fails, the ranker
	// stays stale and the next Refresh solves.
	if err := s.Ranker.Rebuild(); err != nil {
		return fmt.Errorf("sensormeta: refresh: %w", err)
	}
	s.stats.PageRankCold++
	// From-scratch consumers, not delta application: this is the baseline
	// path the incremental benchmarks compare against.
	ranks := s.Ranker.Scores()
	s.Engine.SetRanks(ranks)
	s.Recommender.Rebuild(ranks)
	if err := s.Tags.Rebuild(); err != nil {
		return fmt.Errorf("sensormeta: refresh: %w", err)
	}
	s.trimJournal()
	return nil
}

// Search runs an advanced query. The flat legacy Query is translated onto
// the compositional AST (search.LegacyExpr, search.LegacyOptions) and
// executed by Engine.Execute; Query is the expression-level entry point.
// Setting q.Alpha orders the results by the relevance/PageRank fusion.
func (s *System) Search(q search.Query) ([]search.Result, error) {
	expr, err := search.LegacyExpr(q)
	if err != nil {
		return nil, err
	}
	res, err := s.Engine.Execute(expr, search.LegacyOptions(q))
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// Query executes a compositional query expression (internal/query's
// boolean tree over keyword, property, range, category, has-property,
// title-prefix and namespace leaves) with filter-aware candidate pruning,
// streaming facets and keyset-cursor pagination — the programmatic
// equivalent of POST /api/v1/query.
func (s *System) Query(expr query.Expr, opts search.ExecOptions) (*search.ExecResult, error) {
	return s.Engine.Execute(expr, opts)
}

// Autocomplete suggests query completions.
func (s *System) Autocomplete(prefix string, k int) []search.Completion {
	return s.Engine.Autocomplete(prefix, k)
}

// Recommend proposes pages related to a seed set for a user.
func (s *System) Recommend(seeds []string, user string, k int) []recommend.Recommendation {
	return s.Recommender.Recommend(seeds, user, k)
}

// TopProperties returns the k properties with the highest PageRank-derived
// importance — the ranked variant of the dynamic property drop-down.
func (s *System) TopProperties(k int) []string {
	return s.Recommender.TopProperties(k)
}

// TagCloud computes the current dynamic tag cloud.
func (s *System) TagCloud(opts tagging.CloudOptions) (*tagging.Cloud, error) {
	return s.Tags.Cloud(opts)
}

// QuerySQL runs SQL against the relational projection.
func (s *System) QuerySQL(sql string) (*SQLResult, error) {
	rs, err := s.Repo.QuerySQL(sql)
	if err != nil {
		return nil, err
	}
	return sqlResult(rs), nil
}

// SQLResult is a stringly-typed SQL result for display layers.
type SQLResult struct {
	Columns []string
	Rows    [][]string
}

// QuerySQLExplained runs SQL like QuerySQL and additionally returns the
// relational planner's executed plan tree (estimated versus actual rows per
// node) — one execution serves both.
func (s *System) QuerySQLExplained(sql string) (*SQLResult, *explain.Node, error) {
	rs, plan, err := s.Repo.DB.QueryWith(sql, relational.QueryOptions{Explain: true})
	if err != nil {
		return nil, nil, err
	}
	return sqlResult(rs), plan, nil
}

// sqlResult renders every value of a result set as its display string.
func sqlResult(rs *relational.ResultSet) *SQLResult {
	out := &SQLResult{Columns: rs.Columns}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// PlannerStats snapshots the relational planner's activity counters and
// estimate-error quantiles for the admin stats surface.
func (s *System) PlannerStats() relational.PlannerStats {
	return s.Repo.DB.PlannerStats()
}

// QuerySPARQL runs SPARQL against the RDF projection.
func (s *System) QuerySPARQL(q string) (*sparql.Results, error) {
	return s.Repo.QuerySPARQL(q)
}

// Markers extracts map markers from search results: pages annotated with
// latitude/longitude become markers whose match degree is the result's
// relevance normalized into [0, 1] over the set (1 when all relevances are
// equal, e.g. pure filter queries).
func (s *System) Markers(results []search.Result) []geo.Marker {
	var maxRel float64
	for _, r := range results {
		if r.Relevance > maxRel {
			maxRel = r.Relevance
		}
	}
	var out []geo.Marker
	for _, r := range results {
		page, ok := s.Repo.Wiki.Get(r.Title)
		if !ok {
			continue
		}
		lat, okLat := firstFloat(page, "latitude")
		lon, okLon := firstFloat(page, "longitude")
		if !okLat || !okLon {
			continue
		}
		p := geo.Point{Lat: lat, Lon: lon}
		if !p.Valid() {
			continue
		}
		match := 1.0
		if maxRel > 0 {
			match = r.Relevance / maxRel
		}
		out = append(out, geo.Marker{ID: r.Title, At: p, Match: match})
	}
	return out
}

func firstFloat(p *wiki.Page, property string) (float64, bool) {
	for _, v := range p.PropertyValues(property) {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}
