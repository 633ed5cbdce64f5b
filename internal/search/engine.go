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
// The keyword postings and structural metaIndex are partitioned into hash
// shards over page titles (see shard.go): Execute fans out across shards
// in parallel and k-way merges per-shard results, and Update routes each
// changed page to its owning shard, so refresh and query contend on
// per-shard locks instead of one index-wide lock. The autocomplete trie
// and the TF-IDF term statistics stay global.
type Engine struct {
	mu     sync.RWMutex
	repo   *smr.Repository
	shards []*engineShard
	trie   *Trie
	stats  *TermStats
	ranks  map[string]float64
	seq    uint64 // journal position the index reflects
	epoch  uint64 // bumped by SetShards; keyset cursors bind to it

	// writeMu serializes Rebuild/Update/SetShards against each other.
	// Applying one journal run is idempotent, but two interleaved runs
	// would each see the pre-apply state (e.g. both observe a page as new)
	// and double-count trie references.
	writeMu sync.Mutex
}

// NewEngine builds an engine with the default shard count
// (min(GOMAXPROCS, 8)) and indexes the current repository content.
func NewEngine(repo *smr.Repository) *Engine {
	return NewEngineShards(repo, 0)
}

// NewEngineShards builds an engine partitioned into the given number of
// shards (<= 0 selects the default) and indexes the current repository
// content. Results are byte-identical whatever the shard count; the count
// only chooses how much of the machine a query or refresh can use.
func NewEngineShards(repo *smr.Repository, shards int) *Engine {
	if shards <= 0 {
		shards = DefaultShardCount()
	}
	e := &Engine{repo: repo, ranks: map[string]float64{}, shards: make([]*engineShard, shards)}
	e.Rebuild()
	return e
}

// ShardCount returns the number of index shards.
func (e *Engine) ShardCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.shards)
}

// ShardEpoch returns the current shard epoch. Keyset cursors are minted
// under an epoch and rejected (code "stale_cursor") once SetShards moves
// it, since per-shard walk state does not survive repartitioning. Ordinary
// Update/Rebuild churn does NOT move the epoch — cursors deliberately
// survive refreshes.
func (e *Engine) ShardEpoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// SetShards repartitions the engine into n shards (<= 0 selects the
// default), rebuilding the derived structures and bumping the shard epoch
// so outstanding cursors are invalidated cleanly instead of silently
// paging a differently-partitioned index. A no-op when n already matches.
func (e *Engine) SetShards(n int) {
	if n <= 0 {
		n = DefaultShardCount()
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	cur := len(e.shards)
	e.mu.RUnlock()
	if n == cur {
		return
	}
	// rebuildShards swaps fully-built shards in atomically; queries racing
	// the repartition keep the old snapshot until then.
	e.rebuildShards(n)
	e.mu.Lock()
	e.epoch++
	e.mu.Unlock()
}

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

// upsertPage (re)indexes one page into its shard and keeps the trie's
// refcounts, the global term statistics and the structural metaIndex in
// step: one title reference per live page, one term reference per
// (page, term), one posting per structural key, one df count per
// (live page, term).
func upsertPage(sh *engineShard, tr *Trie, stats *TermStats, p *wiki.Page) {
	title := p.Title.String()
	isNew := !sh.index.Has(title)
	added, removed := sh.index.Add(title, buildDocText(p))
	docDelta := 0
	if isNew {
		tr.Insert(title, titleWeight)
		docDelta = 1
	}
	stats.apply(added, removed, docDelta)
	for _, t := range removed {
		tr.Remove(t, termWeight)
	}
	for _, t := range added {
		tr.Insert(t, termWeight)
	}
	sh.meta.upsert(title, pageMetaKeys(p), pageAnnCounts(p))
}

// deletePage drops one page from its shard and releases its trie entries,
// df counts and structural postings.
func deletePage(sh *engineShard, tr *Trie, stats *TermStats, title string) {
	if !sh.index.Has(title) {
		return
	}
	removed := sh.index.Remove(title)
	stats.apply(nil, removed, -1)
	for _, t := range removed {
		tr.Remove(t, termWeight)
	}
	tr.Remove(title, titleWeight)
	sh.meta.remove(title)
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
	e.mu.RLock()
	n := len(e.shards)
	e.mu.RUnlock()
	e.rebuildShards(n)
}

// rebuildShards rebuilds into n fresh shards and swaps them in. Caller
// holds writeMu.
func (e *Engine) rebuildShards(n int) {
	// Capture the journal position first: changes racing with the scan may
	// be double-applied by a later Update, which is idempotent.
	seq := e.repo.LastSeq()
	stats := newTermStats()
	shards := make([]*engineShard, n)
	for i := range shards {
		shards[i] = newEngineShard(stats)
	}
	trie := NewTrie()
	e.repo.Wiki.Each(func(p *wiki.Page) {
		upsertPage(shards[shardOf(p.Title.String(), n)], trie, stats, p)
	})
	e.mu.Lock()
	e.shards, e.trie, e.stats, e.seq = shards, trie, stats, seq
	e.mu.Unlock()
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full         bool   // the journal was truncated past us: a full Rebuild ran
	Applied      int    // pages re-indexed or dropped
	LinksChanged bool   // some applied change altered the link graph
	Seq          uint64 // journal position the engine now reflects
}

// Update consumes the repository's change journal since the engine's last
// position and applies the delta to the live index and trie — O(changed
// pages) instead of Rebuild's O(corpus). When the journal no longer retains
// the engine's position it falls back to a full Rebuild. The stats tell the
// caller whether the link graph changed (and PageRank therefore needs
// recomputing).
func (e *Engine) Update() UpdateStats {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	since := e.seq
	e.mu.RUnlock()
	changes, ok := e.repo.Changes(since)
	if !ok {
		e.rebuildLocked()
		e.mu.RLock()
		seq := e.seq
		e.mu.RUnlock()
		return UpdateStats{Full: true, LinksChanged: true, Seq: seq}
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
	titles := make([]string, 0, len(changes))
	for _, c := range changes {
		if c.Kind == smr.ChangeTag {
			continue
		}
		if c.LinksChanged {
			stats.LinksChanged = true
		}
		if !seen[c.Title] {
			seen[c.Title] = true
			titles = append(titles, c.Title)
		}
	}
	e.mu.RLock()
	shards, tr, ts := e.shards, e.trie, e.stats
	e.mu.RUnlock()
	// Route each changed title to its owning shard, then apply the groups
	// in parallel: within a shard application stays sequential (ordering
	// per title matters), across shards only the trie and term stats are
	// shared and both take their own locks. A query touching shard A never
	// waits on a refresh writing shard B.
	groups := make([][]string, len(shards))
	for _, title := range titles {
		s := shardOf(title, len(shards))
		groups[s] = append(groups[s], title)
	}
	apply := func(si int) {
		for _, title := range groups[si] {
			if page, ok := e.repo.Wiki.Get(title); ok {
				upsertPage(shards[si], tr, ts, page)
			} else {
				deletePage(shards[si], tr, ts, title)
			}
		}
	}
	busy := 0
	for si := range groups {
		if len(groups[si]) > 0 {
			busy++
		}
	}
	if busy <= 1 {
		for si := range groups {
			apply(si)
		}
	} else {
		var wg sync.WaitGroup
		for si := range groups {
			if len(groups[si]) == 0 {
				continue
			}
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				apply(si)
			}(si)
		}
		wg.Wait()
	}
	stats.Applied = len(titles)
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
// field of results.
func (e *Engine) SetRanks(ranks map[string]float64) {
	e.mu.Lock()
	e.ranks = ranks
	e.mu.Unlock()
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
