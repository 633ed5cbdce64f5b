package search

import (
	"strings"
	"sync"

	"repro/internal/smr"
	"repro/internal/wiki"
)

// FilterOp is a property-filter comparison in an advanced query.
type FilterOp string

// Supported filter operators.
const (
	OpEquals   FilterOp = "="
	OpNotEqual FilterOp = "!="
	OpLess     FilterOp = "<"
	OpLessEq   FilterOp = "<="
	OpGreater  FilterOp = ">"
	OpGreatEq  FilterOp = ">="
	OpContains FilterOp = "contains"
)

// PropertyFilter restricts results to pages whose annotation satisfies the
// comparison. Ordered operators compare numerically when both sides parse
// as numbers, lexically otherwise.
type PropertyFilter struct {
	Property string
	Op       FilterOp
	Value    string
}

// SortKey selects the ordering of results.
type SortKey string

// Supported sort keys (the interface's "sort by" drop-down).
const (
	SortRelevance SortKey = "relevance"
	SortTitle     SortKey = "title"
	SortRank      SortKey = "rank" // PageRank score, supplied by the caller
)

// Order is the explicit result direction ("order by" in the interface).
type Order string

// Order values. OrderDefault gives each sort key its natural direction:
// descending for relevance and rank, ascending for title.
const (
	OrderDefault Order = ""
	OrderAsc     Order = "asc"
	OrderDesc    Order = "desc"
)

// Query is the advanced search input: free-text keywords plus structured
// options, mirroring the paper's query interface (keyword, sort by, order
// by, property conditions, namespace scope). It is the flat legacy form of
// a search; LegacyExpr and LegacyOptions translate it for Engine.Execute.
type Query struct {
	Keywords  string
	Mode      Mode
	Filters   []PropertyFilter
	Namespace string // "" means all namespaces
	Category  string // "" means all categories
	SortBy    SortKey
	Order     Order
	Limit     int // 0 means no limit
	Offset    int
	User      string // ACL principal; "" means anonymous
	// Alpha, when non-nil, orders results by the relevance/PageRank fusion
	// alpha·relevance + (1−alpha)·rank (normalized over the matching set)
	// instead of SortBy — the legacy alpha= parameter, executed inside the
	// engine's top-k selection. SortBy and Order are ignored while fusing.
	Alpha *float64
}

// Result is one search result with its component scores.
type Result struct {
	Title     string
	Relevance float64
	Rank      float64 // PageRank score when the engine has one
	Matched   map[string]string
}

// Trie entry weight classes: page titles outrank body terms in the
// completion box.
const (
	titleWeight = 2
	termWeight  = 1
)

// Engine executes advanced queries against an SMR repository. PageRank
// scores are pushed in by the ranking layer (internal/ranking) — the engine
// itself stays ignorant of how they are computed. The engine consumes the
// repository's change journal (Update) to keep its index and trie current
// without rebuilding them; Rebuild remains the from-scratch fallback.
//
// It holds one keyword Index, one structural metaIndex and one
// autocomplete Trie over the whole corpus. Each takes its own RWMutex per
// call, so a refresh applying a page and a query reading the index take
// turns on the same lock.
type Engine struct {
	mu    sync.RWMutex
	repo  *smr.Repository
	index *Index
	meta  *metaIndex
	trie  *Trie
	ranks map[string]float64 // guarded by mu
	seq   uint64             // journal position the index reflects

	// writeMu serializes Rebuild and Update against each other.
	// Applying one journal run is idempotent, but two interleaved runs
	// would each see the pre-apply state (e.g. both observe a page as new)
	// and double-count trie references.
	writeMu sync.Mutex
}

// NewEngine builds an engine and indexes the current repository content.
func NewEngine(repo *smr.Repository) *Engine {
	e := &Engine{repo: repo, ranks: map[string]float64{}}
	e.Rebuild()
	return e
}

// ShardCount returns 1.
//
// Deprecated: the engine has one index; nothing replaces this count.
func (e *Engine) ShardCount() int { return 1 }

// buildDocText renders the indexable text of a page: title, wikitext and
// annotation text, so both prose and structured values are searchable, as
// in Semantic MediaWiki.
func buildDocText(p *wiki.Page) string {
	var b strings.Builder
	b.WriteString(p.Title.String())
	b.WriteByte('\n')
	b.WriteString(p.Text())
	for _, a := range p.Annotations {
		b.WriteByte('\n')
		b.WriteString(a.Property)
		b.WriteByte(' ')
		b.WriteString(a.Value)
	}
	return b.String()
}

// upsertPage (re)indexes one page and keeps the trie's refcounts and the
// structural metaIndex in step: one title reference per live page, one
// term reference per (page, term), one posting per structural key.
func upsertPage(ix *Index, meta *metaIndex, tr *Trie, p *wiki.Page) {
	title := p.Title.String()
	if !ix.Has(title) {
		tr.Insert(title, titleWeight)
	}
	added, removed := ix.Add(title, buildDocText(p))
	for _, t := range removed {
		tr.Remove(t, termWeight)
	}
	for _, t := range added {
		tr.Insert(t, termWeight)
	}
	meta.upsert(title, pageMetaKeys(p), pageAnnCounts(p))
}

// deletePage drops one page and releases its trie entries and structural
// postings.
func deletePage(ix *Index, meta *metaIndex, tr *Trie, title string) {
	if !ix.Has(title) {
		return
	}
	for _, t := range ix.Remove(title) {
		tr.Remove(t, termWeight)
	}
	tr.Remove(title, titleWeight)
	meta.remove(title)
}

// Rebuild re-indexes every page from scratch and swaps the fresh structures
// in atomically. Searches running concurrently keep the old snapshot.
func (e *Engine) Rebuild() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.rebuildLocked()
}

// rebuildLocked is Rebuild's body; the caller holds writeMu.
func (e *Engine) rebuildLocked() {
	// Capture the journal position first: changes racing with the scan may
	// be double-applied by a later Update, which is idempotent.
	seq := e.repo.LastSeq()
	ix, meta, trie := NewIndex(), newMetaIndex(), NewTrie()
	e.repo.Wiki.Each(func(p *wiki.Page) { upsertPage(ix, meta, trie, p) })
	e.mu.Lock()
	e.index, e.meta, e.trie, e.seq = ix, meta, trie, seq
	e.mu.Unlock()
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full    bool   // the journal was truncated past us: a full Rebuild ran
	Applied int    // pages re-indexed or dropped
	Seq     uint64 // journal position the engine now reflects
}

// Update consumes the repository's change journal since the engine's last
// position and applies the delta to the live index and trie — O(changed
// pages) instead of Rebuild's O(corpus). When the journal no longer retains
// the engine's position it falls back to a full Rebuild.
func (e *Engine) Update() UpdateStats {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	since, ix, meta, tr := e.seq, e.index, e.meta, e.trie
	e.mu.RUnlock()
	changes, ok := e.repo.Changes(since)
	if !ok {
		e.rebuildLocked()
		return UpdateStats{Full: true, Seq: e.Seq()}
	}
	if len(changes) == 0 {
		return UpdateStats{Seq: since}
	}
	stats := UpdateStats{Seq: changes[len(changes)-1].Seq}
	// Coalesce to one application per title: the page is re-read from the
	// repository's current state, so the latest revision wins regardless of
	// how many journal entries it accumulated. Tag assignments don't touch
	// the indexed text, so ChangeTag entries only advance the position.
	seen := make(map[string]bool, len(changes))
	for _, c := range changes {
		if c.Kind == smr.ChangeTag || seen[c.Title] {
			continue
		}
		seen[c.Title] = true
		if page, ok := e.repo.Wiki.Get(c.Title); ok {
			upsertPage(ix, meta, tr, page)
		} else {
			deletePage(ix, meta, tr, c.Title)
		}
		stats.Applied++
	}
	e.mu.Lock()
	if stats.Seq > e.seq {
		e.seq = stats.Seq
	}
	e.mu.Unlock()
	return stats
}

// Seq returns the journal position the engine currently reflects.
func (e *Engine) Seq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// SetRanks installs PageRank scores for SortRank ordering and for the Rank
// field of results. The engine is the one holder query paths read ranks
// from; the map must not be modified after it is installed.
func (e *Engine) SetRanks(ranks map[string]float64) {
	e.mu.Lock()
	e.ranks = ranks
	e.mu.Unlock()
}

// Ranks returns the installed PageRank scores. The map is shared and must
// not be modified; read it once per query so one vector orders the query.
func (e *Engine) Ranks() map[string]float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ranks
}

// Autocomplete suggests completions for a partial query.
func (e *Engine) Autocomplete(prefix string, k int) []Completion {
	e.mu.RLock()
	trie := e.trie
	e.mu.RUnlock()
	return trie.Complete(prefix, k)
}

// facetAccumulators prepares the count maps for a property list,
// deduplicated case-insensitively so repeated or differently-cased
// parameters cannot double-count.
func facetAccumulators(properties []string) ([]string, map[string]map[string]int) {
	props := make([]string, 0, len(properties))
	facets := make(map[string]map[string]int, len(properties))
	for _, prop := range properties {
		key := strings.ToLower(prop)
		if _, ok := facets[key]; ok {
			continue
		}
		facets[key] = make(map[string]int)
		props = append(props, key)
	}
	return props, facets
}

// resultLessKeyed builds the comparator of a query's final display order:
// the sort key's natural direction (best-first for scores, A→Z for
// titles), ties broken by title, the whole order negated when an explicit
// Order opposes the natural one. Titles are unique within a result set, so
// this is a strict total order and negation is exactly the reversed list.
// The strict total order is also what makes keyset cursors sound: every
// result has a unique position, so "strictly after the cursor row" is
// unambiguous.
func resultLessKeyed(key SortKey, order Order) func(a, b Result) bool {
	if key == "" {
		key = SortRelevance
	}
	natural := func(a, b Result) bool {
		switch key {
		case SortTitle:
			if a.Title != b.Title {
				return a.Title < b.Title
			}
		case SortRank:
			if a.Rank != b.Rank {
				return a.Rank > b.Rank
			}
		default:
			if a.Relevance != b.Relevance {
				return a.Relevance > b.Relevance
			}
		}
		return a.Title < b.Title
	}
	naturalOrder := OrderDesc
	if key == SortTitle {
		naturalOrder = OrderAsc
	}
	if order != OrderDefault && order != naturalOrder {
		return func(a, b Result) bool { return natural(b, a) }
	}
	return natural
}

// fusedResultLess builds the comparator of the alpha-fused display order:
// combined = alpha·(relevance/maxRel) + (1−alpha)·(rank/maxRank),
// descending, ties broken by title; each normalizer is the matching set's
// maximum, and a zero maximum zeroes its term. An explicit ascending Order
// reverses the strict total order.
func fusedResultLess(alpha, maxRel, maxRank float64, order Order) func(a, b Result) bool {
	combined := func(r Result) float64 {
		rel, rank := 0.0, 0.0
		if maxRel > 0 {
			rel = r.Relevance / maxRel
		}
		if maxRank > 0 {
			rank = r.Rank / maxRank
		}
		return alpha*rel + (1-alpha)*rank
	}
	natural := func(a, b Result) bool {
		ca, cb := combined(a), combined(b)
		if ca != cb {
			return ca > cb
		}
		return a.Title < b.Title
	}
	if order != OrderDefault && order != OrderDesc {
		return func(a, b Result) bool { return natural(b, a) }
	}
	return natural
}
