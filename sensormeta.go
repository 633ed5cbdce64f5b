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
	"repro/internal/pagerank"
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

// System is a fully wired instance of the metadata search stack.
type System struct {
	Repo        *smr.Repository
	Engine      *search.Engine
	Ranker      *ranking.Ranker
	Recommender *recommend.Recommender
	Tags        *tagging.Pipeline
	// QueryManager is the combined SQL+SPARQL+keyword execution path (the
	// Query Management module of the paper's Fig. 1).
	QueryManager *core.Manager

	// refreshMu serializes Refresh/RefreshFull: concurrent refreshes (e.g.
	// two POST /api/refresh) would race on Ranker/Recommender/rankingDirty.
	refreshMu sync.Mutex
	// ptrMu guards cross-goroutine loads of the Ranker and Recommender
	// pointers (request handlers read them while a background refresh —
	// e.g. the server's auto-refresh — installs replacements). Writers
	// additionally hold refreshMu.
	ptrMu sync.RWMutex
	// rankingDirty records that a consumed journal delta changed the link
	// graph but the solve failed, so the next Refresh must not skip it.
	// guarded by refreshMu.
	rankingDirty bool
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

	// Shards is how many hash shards the search engine (and recommender)
	// partition their posting structures into, fixed at construction.
	Shards int `json:"shards"`

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
		Refreshes:       s.stats.Refreshes,
		FullRefreshes:   s.stats.FullRefreshes,
		PagesApplied:    s.stats.PagesApplied,
		EngineRebuilds:  s.stats.EngineRebuilds,
		PageRankSkipped: s.stats.PageRankSkipped,
		PageRankWarm:    s.stats.PageRankWarm,
		PageRankCold:    s.stats.PageRankCold,
		Shards:          s.Engine.ShardCount(),
		WAL:             s.Repo.WALStats(),
	}
	if s.Tags != nil {
		st.Tagging = s.Tags.Stats()
		st.TaggingSeq = st.Tagging.Seq
	}
	if s.Recommender != nil {
		st.Recommender = s.Recommender.Stats()
		st.RecommenderSeq = st.Recommender.Seq
	}
	return st
}

// New creates an empty system.
func New() (*System, error) {
	return NewShards(0)
}

// NewShards creates an empty system whose search engine (and, through it,
// the recommender) is partitioned into n hash shards (n <= 0 selects the
// GOMAXPROCS-aware default). The count is fixed for the system's lifetime;
// results and cursor tokens are byte-identical whatever it is.
func NewShards(n int) (*System, error) {
	repo, err := smr.New()
	if err != nil {
		return nil, err
	}
	return wire(repo, n)
}

// Open restores a system from a durable data directory (smr.Open): the
// newest snapshot plus the write-ahead-log tail past it. The first Refresh
// runs inside Open and is incremental — every derived consumer catches up
// by applying the restored journal, with no RefreshFull/Engine.Rebuild —
// so a cold-started replica is query-ready in time bounded by the snapshot
// size and the tail length, not by the full write history. Close the
// system when done so the log is flushed.
func Open(dir string, opts smr.DurableOptions) (*System, error) {
	return OpenShards(dir, opts, 0)
}

// OpenShards is Open with a construction-time shard count, as NewShards
// is to New. n <= 0 selects the default.
func OpenShards(dir string, opts smr.DurableOptions, n int) (*System, error) {
	repo, err := smr.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s, err := wire(repo, n)
	if err != nil {
		repo.Close()
		return nil, err
	}
	return s, nil
}

// wire builds the derived stack around a repository and brings it current
// through the incremental refresh path. shards <= 0 selects the default
// engine partitioning.
func wire(repo *smr.Repository, shards int) (*System, error) {
	s := &System{Repo: repo}
	s.Engine = search.NewEngineShards(repo, shards)
	s.Tags = tagging.NewPipeline(repo, true)
	s.QueryManager = core.NewManager(repo, s.Engine)
	if err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
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
	if s.Ranker == nil || stats.LinksChanged || s.rankingDirty {
		// The graph changed (or this is the first refresh, or a previous
		// solve failed after its delta was consumed): recompute PageRank,
		// warm-started when the previous scores are usable.
		s.rankingDirty = true
		rk, warm, err := s.solveRanking()
		if err != nil {
			return fmt.Errorf("sensormeta: refresh: %w", err)
		}
		if warm {
			s.stats.PageRankWarm++
		} else {
			s.stats.PageRankCold++
		}
		s.installRankingLocked(rk, false)
	} else {
		// PageRank stands; annotation edits may still have moved the
		// recommender's property weights — applied as a journal delta.
		s.stats.PageRankSkipped++
		s.Recommender.Update()
	}
	// The tagging pipeline consumes the same delta so tag clouds served
	// between refreshes stay O(changed pages).
	if s.Tags != nil {
		if _, err := s.Tags.Update(); err != nil {
			return fmt.Errorf("sensormeta: refresh: %w", err)
		}
	}
	s.trimJournal()
	return nil
}

// trimJournal releases the journal prefix every consumer has applied.
// Caller holds refreshMu. Consumers a hand-built System never wired (nil
// Tags/Recommender) don't hold the journal back.
func (s *System) trimJournal() {
	seq := s.Engine.Seq()
	if s.Recommender != nil {
		if rs := s.Recommender.Seq(); rs < seq {
			seq = rs
		}
	}
	if s.Tags != nil {
		if ts := s.Tags.Seq(); ts < seq {
			seq = ts
		}
	}
	s.Repo.Journal().TrimTo(seq)
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
	// The rebuild consumed the journal; if the solve below fails, the next
	// Refresh must not treat PageRank as current.
	s.rankingDirty = true
	rk, err := ranking.New(s.Repo)
	if err != nil {
		return fmt.Errorf("sensormeta: refresh: %w", err)
	}
	s.stats.PageRankCold++
	// From-scratch consumers, not delta application: this is the baseline
	// path the incremental benchmarks compare against.
	s.installRankingLocked(rk, true)
	if s.Tags != nil {
		if err := s.Tags.Rebuild(); err != nil {
			return fmt.Errorf("sensormeta: refresh: %w", err)
		}
	}
	s.trimJournal()
	return nil
}

// solveRanking recomputes PageRank with Gauss–Seidel, warm-started from
// the previous score vector when there is one. warm reports whether the
// previous scores seeded the solve.
func (s *System) solveRanking() (rk *ranking.Ranker, warm bool, err error) {
	if s.Ranker != nil {
		rk, err = s.Ranker.Update(s.Repo)
		return rk, true, err
	}
	rk, err = ranking.New(s.Repo)
	return rk, false, err
}

// installRankingLocked pushes a freshly computed ranker into every consumer.
// With rebuildRecommender false (the incremental path) the recommender's
// per-page property sets are brought up to date with the journal and
// rescored against the new PageRank vector — no corpus rescan; with true
// (RefreshFull, first refresh) it is rebuilt from scratch. The new
// pointers are swapped in under ptrMu so concurrent readers never observe
// a half-installed state. Caller holds refreshMu.
func (s *System) installRankingLocked(rk *ranking.Ranker, rebuildRecommender bool) {
	s.rankingDirty = false
	rec := s.Recommender
	if rebuildRecommender || rec == nil {
		rec = recommend.NewSharded(s.Repo, rk.Scores(), s.Engine.ShardCount())
	} else {
		rec.Update()
		rec.SetRanks(rk.Scores())
	}
	s.ptrMu.Lock()
	s.Ranker = rk
	s.Recommender = rec
	s.ptrMu.Unlock()
	rk.Install(s.Engine)
	s.QueryManager.SetScores(rk.Scores())
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

// ranker loads the current Ranker pointer safely against a concurrent
// refresh installing a replacement.
func (s *System) ranker() *ranking.Ranker {
	s.ptrMu.RLock()
	defer s.ptrMu.RUnlock()
	return s.Ranker
}

// recommender loads the current Recommender pointer safely against a
// concurrent refresh installing a replacement.
func (s *System) recommender() *recommend.Recommender {
	s.ptrMu.RLock()
	defer s.ptrMu.RUnlock()
	return s.Recommender
}

// Autocomplete suggests query completions.
func (s *System) Autocomplete(prefix string, k int) []search.Completion {
	return s.Engine.Autocomplete(prefix, k)
}

// Recommend proposes pages related to a seed set for a user.
func (s *System) Recommend(seeds []string, user string, k int) []recommend.Recommendation {
	return s.recommender().Recommend(seeds, user, k)
}

// TopProperties returns the k properties with the highest PageRank-derived
// importance — the ranked variant of the dynamic property drop-down.
func (s *System) TopProperties(k int) []string {
	return s.recommender().TopProperties(k)
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
	out := &SQLResult{Columns: rs.Columns}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out, nil
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
	out := &SQLResult{Columns: rs.Columns}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out, plan, nil
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

// CompareSolvers runs all six PageRank solvers over the current link graph
// (the paper's Fig.-3 evaluation on live data).
func (s *System) CompareSolvers(opts pagerank.Options) ([]*pagerank.Result, error) {
	return pagerank.Compare(s.Repo.LinkGraph(), opts)
}
