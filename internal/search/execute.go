package search

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/sortedset"
	"repro/internal/wiki"
)

// ExecOptions configures one execution of a query expression.
type ExecOptions struct {
	SortBy SortKey
	Order  Order
	// Alpha, when non-nil, orders results by the relevance/PageRank fusion
	// alpha·(relevance/maxRel) + (1−alpha)·(rank/maxRank), the normalizers
	// taken over the whole matching set — the executor-level form of the
	// paper's combined ranking (legacy alpha= parameter). Alpha is clamped
	// to [0, 1]; SortBy must be empty or SortRelevance (the fusion defines
	// the order). Cursors are bound to the alpha they were minted under.
	Alpha *float64
	// Limit caps the returned page (0 = everything). Offset is the legacy
	// skip count; Cursor is an opaque keyset cursor from a previous
	// ExecResult — the two are mutually exclusive.
	Limit  int
	Offset int
	Cursor string
	// User is the ACL principal ("" = anonymous).
	User string
	// Facets lists properties whose per-value counts are accumulated over
	// the whole matching set in the same enumeration pass.
	Facets []string
	// CountOnly skips result materialization: only Matched and Facets are
	// computed (the streaming facet path).
	CountOnly bool
	// DisablePruning skips candidate-set pruning and runs the legacy
	// score-then-filter enumeration — the ablation baseline the pushdown
	// benchmark compares against. It also disables the index-served facet
	// fast path, which is built on the same candidate derivation.
	DisablePruning bool
	// DisableFacetIndex forces the streaming facet path even when the
	// expression's match set is exactly index-derivable — the ablation
	// baseline BenchmarkFacetIndexVsStream compares against.
	DisableFacetIndex bool
	// Explain attaches a plan tree to the result: per-shard enumeration
	// strategy with the index's match estimate against the actual counts.
	Explain bool
}

// ExecResult is the outcome of executing a query expression.
type ExecResult struct {
	// Results is the requested page of matches, in the total order the
	// sort options define.
	Results []Result
	// Facets holds per-property value counts over the whole matching set
	// (keys lowercased), for the properties requested in ExecOptions.
	Facets map[string]map[string]int
	// Matched is the size of the whole matching set, independent of
	// pagination.
	Matched int
	// NextCursor is the opaque cursor for the page after this one; empty
	// when this page exhausts the matching set (or Limit was 0).
	NextCursor string
	// Plan is the executed plan tree (only when ExecOptions.Explain): one
	// child per shard showing the enumeration strategy chosen there,
	// estimated versus actual rows on every node.
	Plan *explain.Node
}

// kwMatchers caches compiled keyword matchers per (text, mode) for one
// execution, so evaluating the same keyword leaf over many candidate
// pages tokenizes the query exactly once.
type kwKey struct {
	text string
	any  bool
}

type kwMatchers struct {
	ix *Index
	m  map[kwKey]*DocMatcher
}

func newKwMatchers(ix *Index) *kwMatchers {
	return &kwMatchers{ix: ix, m: map[kwKey]*DocMatcher{}}
}

func (k *kwMatchers) score(id, text string, any bool) (float64, bool) {
	key := kwKey{text: text, any: any}
	dm := k.m[key]
	if dm == nil {
		mode := ModeAll
		if any {
			mode = ModeAny
		}
		dm = k.ix.CompileDocMatcher(text, mode)
		k.m[key] = dm
	}
	return dm.Score(id)
}

// docView adapts one wiki page (plus the engine's text index) to the query
// evaluator's Doc interface. When enumeration was driven by a keyword
// leaf's posting hits, the hit's already-computed score is reused for that
// leaf instead of being re-derived per page.
type docView struct {
	page        *wiki.Page
	title       string
	kws         *kwMatchers
	driverText  string
	driverAny   bool
	driverScore float64
	hasDriver   bool
}

func (d docView) Title() string                       { return d.title }
func (d docView) Namespace() string                   { return string(d.page.Title.Namespace) }
func (d docView) Categories() []string                { return d.page.Categories }
func (d docView) PropertyValues(name string) []string { return d.page.PropertyValues(name) }
func (d docView) Keyword(text string, any bool) (float64, bool) {
	if d.hasDriver && text == d.driverText && any == d.driverAny {
		return d.driverScore, true
	}
	return d.kws.score(d.title, text, any)
}

// estimator implements query.Estimator over the engine's structural and
// text indexes; built per execution so the index snapshot stays stable.
type estimator struct {
	meta *metaIndex
	ix   *Index
	n    int
}

func (es estimator) Universe() int { return es.n }

func (es estimator) EstimateLeaf(leaf query.Expr) int {
	if kw, ok := leaf.(query.Keyword); ok {
		mode := ModeAll
		if kw.Any {
			mode = ModeAny
		}
		return es.ix.EstimateHits(kw.Text, mode)
	}
	if n, ok := es.meta.estimateLeaf(leaf); ok {
		return n
	}
	return es.n
}

// cursorPayload is the decoded keyset cursor: the sort key values of the
// last item served, plus a signature binding the cursor to the query,
// sort and fusion parameters it was minted for, and the shard epoch it
// was minted under (Epoch): resharding repartitions the index, so cursors
// from before a SetShards are rejected as stale instead of silently
// paging a differently-partitioned engine. Ordinary refresh churn keeps
// the epoch, so cursors survive index updates as before.
type cursorPayload struct {
	Sort  string  `json:"s"`
	Order string  `json:"o"`
	Rel   float64 `json:"r"`
	Rank  float64 `json:"k"`
	Title string  `json:"t"`
	Epoch uint64  `json:"e"`
	Sig   uint64  `json:"g"`
}

// execCursorSignature fingerprints the (normalized expression, sort,
// order, alpha) tuple so a cursor minted for one query cannot silently
// page another — a cursor minted without fusion is rejected by a fused
// request for the same expression, and vice versa.
func execCursorSignature(canonical []byte, key SortKey, order Order, alpha *float64) uint64 {
	parts := []string{string(canonical), string(key), string(order)}
	if alpha != nil {
		parts = append(parts, "alpha="+strconv.FormatFloat(clamp01(*alpha), 'g', -1, 64))
	}
	return CursorSignature(parts...)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func decodeCursor(s string, sig uint64, key SortKey, order Order, epoch uint64) (*cursorPayload, error) {
	var p cursorPayload
	if err := DecodeCursorToken(s, &p); err != nil {
		return nil, err
	}
	if p.Sig != sig || p.Sort != string(key) || p.Order != string(order) {
		return nil, &query.Error{Code: "bad_cursor", Field: "cursor",
			Message: "cursor was issued for a different query or sort order"}
	}
	if p.Epoch != epoch {
		return nil, &query.Error{Code: "stale_cursor", Field: "cursor",
			Message: "cursor predates a reshard of the index; restart the walk from the first page"}
	}
	return &p, nil
}

// Execute runs a query expression: validation, normalization, selectivity
// reordering, candidate pruning, one enumeration pass accumulating facets
// and the matching total, and top-k selection with either offset or keyset
// (cursor) pagination.
//
// Candidate pruning is the filter pushdown closing the old
// score-every-posting-then-filter gap: when the expression's structural
// leaves yield posting sets, the most selective sets are intersected
// first and keywords are scored only over the surviving candidates
// (DocMatcher.Score), never over the full posting lists. When no structural
// candidates exist the executor falls back to driving enumeration from the
// required keyword's postings (the legacy path), or a full corpus scan for
// keyword-free queries.
//
// Two further index-native paths live here:
//
//   - facet counts: when the expression is keyword-free and its match set
//     is exactly derivable from the metaIndex (candidates reports exact),
//     Matched and every requested facet are answered by posting-set
//     arithmetic (metaIndex.facetInto) — no page is fetched or evaluated.
//     CountOnly executions then skip enumeration entirely;
//   - alpha fusion: with Alpha set, results are ordered by the
//     relevance/PageRank fusion inside the top-k selection. The
//     normalizers (max relevance, max rank over the matching set) are only
//     known once enumeration finishes, so matches are buffered and then
//     pushed through a bounded Limit-sized heap under the fused comparator
//     — an O(n log k) selection, never a materialize-and-re-sort.
func (e *Engine) Execute(expr query.Expr, opts ExecOptions) (*ExecResult, error) {
	if expr == nil {
		expr = query.All{}
	}
	if err := query.Validate(expr); err != nil {
		return nil, err
	}
	if opts.Cursor != "" && opts.Offset > 0 {
		return nil, &query.Error{Code: "bad_request", Field: "offset",
			Message: "cursor and offset are mutually exclusive"}
	}
	fusing := opts.Alpha != nil
	var alpha float64
	if fusing {
		if opts.SortBy != "" && opts.SortBy != SortRelevance {
			return nil, &query.Error{Code: "bad_request", Field: "sort",
				Message: "alpha defines the fused result order; sort must be omitted or \"relevance\""}
		}
		alpha = clamp01(*opts.Alpha)
	}

	e.mu.RLock()
	shards, ranks, epoch := e.shards, e.ranks, e.epoch
	e.mu.RUnlock()

	// norm is what gets evaluated per page: deterministic for a given
	// input expression, so matched display pairs follow the author's
	// operand order and the cursor signature survives index churn between
	// pages. Each shard additionally reorders And operands most-selective
	// first from its own index statistics — reordering only steers
	// candidate planning, never evaluation, so shard-local plans cannot
	// change what matches or how it scores.
	norm := query.Normalize(expr)
	corpusN := e.repo.Wiki.Len()

	key, order := opts.SortBy, opts.Order
	if key == "" {
		key = SortRelevance
	}
	less := resultLessKeyed(key, order)

	// The corpus title list is fetched and hash-partitioned once, lazily:
	// only executions that need a shard's title universe (Not complements,
	// corpus scans) pay for it.
	var titlesOnce sync.Once
	var shardTitles [][]string
	titlesFor := func(si int) func() []string {
		return func() []string {
			titlesOnce.Do(func() {
				shardTitles = partitionTitles(e.repo.Wiki.Titles(), len(shards))
			})
			return shardTitles[si]
		}
	}

	var cur *cursorPayload
	var sig uint64
	if opts.Cursor != "" || opts.Limit > 0 {
		canonical, err := query.Marshal(norm)
		if err != nil {
			return nil, err
		}
		sig = execCursorSignature(canonical, key, order, opts.Alpha)
	}
	if opts.Cursor != "" {
		p, err := decodeCursor(opts.Cursor, sig, key, order, epoch)
		if err != nil {
			return nil, err
		}
		cur = p
	}
	curResult := Result{}
	if cur != nil {
		curResult = Result{Title: cur.Title, Relevance: cur.Rel, Rank: cur.Rank}
	}

	// Each shard runs the full enumerate/prune/score pipeline over its own
	// partition and returns a shardOut; shards share only read-only state
	// (norm, cursor, ranks snapshot) plus their own locks. Because titles
	// partition across shards, per-shard match sets are disjoint: Matched,
	// eligible and facet counts sum, and sorted per-shard prefixes k-way
	// merge into the global prefix (every display order is a strict total
	// order with a unique-title tie-break).
	type shardOut struct {
		results  []Result // heap-sorted top-(limit+offset) when sel ran, else unsorted buffer
		matched  int
		eligible int
		facets   map[string]map[string]int
		maxRel   float64
		maxRank  float64
		kws      *kwMatchers
		exact    bool
		plan     *explain.Node
	}

	run := func(si int) *shardOut {
		sh := shards[si]
		titles := titlesFor(si)
		so := &shardOut{kws: newKwMatchers(sh.index)}
		props, facets := facetAccumulators(opts.Facets)
		so.facets = facets
		planned := query.Reorder(norm, estimator{meta: sh.meta, ix: sh.index, n: corpusN})
		// attachPlan records this shard's plan node: the index's match
		// estimate against the actual match count, with one child naming the
		// enumeration strategy and how many candidates it streamed.
		attachPlan := func(op, detail string, scanned int) {
			if !opts.Explain {
				return
			}
			n := explain.New("SearchShard", fmt.Sprintf("partition %d/%d", si, len(shards)))
			n.Est = query.Estimate(planned, estimator{meta: sh.meta, ix: sh.index, n: corpusN})
			n.Act = so.matched
			strat := explain.New(op, detail)
			strat.Act = scanned
			n.Add(strat)
			so.plan = n
		}

		// Exact-set fast path: a keyword-free expression whose match set
		// the metaIndex derives exactly has Matched and every facet
		// answered by set arithmetic over the shard snapshot. The ACL
		// still filters the match set (a title check, no page fetch).
		// Exactness is decided by the expression's shape, so every shard
		// takes the same branch here.
		var exact []string
		if !opts.DisablePruning && !opts.DisableFacetIndex {
			if s, isExact, ok := sh.meta.candidates(norm, titles); ok && isExact {
				kept := s[:0]
				for _, t := range s {
					if e.repo.ACL.CanRead(opts.User, t) {
						kept = append(kept, t)
					}
				}
				exact, so.exact = kept, true
				sh.meta.facetsInto(props, facets, exact)
				props = nil
			}
		}
		if opts.CountOnly && so.exact {
			so.matched = len(exact)
			attachPlan("ExactSet", "index-derived match set", len(exact))
			return so
		}

		var sel *topK[Result]
		if !opts.CountOnly && !fusing && opts.Limit > 0 {
			sel = newTopK(opts.Limit+opts.Offset, less)
		}
		// The driver leaf must come from the SAME tree enumerate drives
		// with: with two keyword conjuncts, reordering can change which
		// one drives, and installing the driven score under the other
		// leaf's text would corrupt both match decisions and scores.
		driver, hasDriverLeaf := requiredKeyword(planned)
		visit := func(title string, driverScore float64, hasDriver bool) {
			var r Result
			if so.exact {
				// The exact set is already ACL-filtered and facet-counted;
				// only a liveness check stands between membership and a
				// result.
				if _, ok := e.repo.Wiki.Get(title); !ok {
					return
				}
				so.matched++
				if opts.CountOnly {
					return
				}
				r = Result{Title: title, Rank: ranks[title]}
			} else {
				page, ok := e.repo.Wiki.Get(title)
				if !ok {
					return
				}
				if !e.repo.ACL.CanRead(opts.User, title) {
					return
				}
				d := docView{page: page, title: title, kws: so.kws}
				if hasDriver && hasDriverLeaf {
					d.driverText, d.driverAny = driver.Text, driver.Any
					d.driverScore, d.hasDriver = driverScore, true
				}
				m := query.Eval(norm, d)
				if !m.OK {
					return
				}
				so.matched++
				for _, p := range props {
					for _, v := range page.PropertyValues(p) {
						facets[p][v]++
					}
				}
				if opts.CountOnly {
					return
				}
				r = Result{Title: title, Relevance: m.Score, Rank: ranks[title], Matched: m.Matched}
			}
			if fusing {
				// The fused comparator needs the whole matching set's
				// normalizers, so cursor filtering and selection run after
				// the fan-in merges per-shard maxima.
				if r.Relevance > so.maxRel {
					so.maxRel = r.Relevance
				}
				if r.Rank > so.maxRank {
					so.maxRank = r.Rank
				}
				so.results = append(so.results, r)
				return
			}
			if cur != nil && !less(curResult, r) {
				return // at or before the cursor position in the total order
			}
			so.eligible++
			if sel != nil {
				sel.push(r)
			} else {
				so.results = append(so.results, r)
			}
		}

		if so.exact {
			// The facet fast path already derived (and ACL-filtered) the
			// exact match set; enumerate over it directly instead of
			// re-deriving candidates from the index.
			for _, t := range exact {
				visit(t, 0, false)
			}
			attachPlan("ExactSet", "index-derived match set", len(exact))
		} else {
			op, detail, scanned := e.enumerate(sh, planned, titles, driver, hasDriverLeaf, opts.DisablePruning, visit)
			attachPlan(op, detail, scanned)
		}
		if sel != nil {
			so.results = sel.sorted()
		}
		return so
	}

	outs := make([]*shardOut, len(shards))
	if len(shards) == 1 {
		outs[0] = run(0)
	} else {
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				outs[si] = run(si)
			}(si)
		}
		wg.Wait()
	}

	// Fan-in: counts sum, facet counts merge by value, result lists merge
	// under the same strict total order each shard selected with.
	_, mergedFacets := facetAccumulators(opts.Facets)
	res := &ExecResult{Facets: mergedFacets}
	for _, so := range outs {
		res.Matched += so.matched
		for p, counts := range so.facets {
			for v, n := range counts {
				mergedFacets[p][v] += n
			}
		}
	}
	if opts.Explain {
		detail := fmt.Sprintf("shards=%d sort=%s", len(shards), key)
		if order != "" {
			detail += " " + string(order)
		}
		if fusing {
			detail += " alpha-fused"
		}
		root := explain.New("Search", detail)
		est := 0
		for _, so := range outs {
			if so.plan != nil {
				est += so.plan.Est
				root.Add(so.plan)
			}
		}
		if est > corpusN {
			est = corpusN
		}
		root.Est, root.Act = est, res.Matched
		res.Plan = root
	}
	if opts.CountOnly {
		return res, nil
	}

	eligible := 0 // matches after the cursor (== Matched when no cursor)
	var out []Result
	if fusing {
		var maxRel, maxRank float64
		total := 0
		for _, so := range outs {
			total += len(so.results)
			if so.maxRel > maxRel {
				maxRel = so.maxRel
			}
			if so.maxRank > maxRank {
				maxRank = so.maxRank
			}
		}
		out = make([]Result, 0, total)
		for _, so := range outs {
			out = append(out, so.results...)
		}
		less = fusedResultLess(alpha, maxRel, maxRank, order)
		if cur != nil {
			kept := out[:0]
			for _, r := range out {
				if less(curResult, r) {
					kept = append(kept, r)
				}
			}
			out = kept
		}
		eligible = len(out)
		if opts.Limit > 0 {
			fsel := newTopK(opts.Limit+opts.Offset, less)
			for _, r := range out {
				fsel.push(r)
			}
			out = fsel.sorted()
		} else {
			sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
		}
	} else {
		for _, so := range outs {
			eligible += so.eligible
		}
		if opts.Limit > 0 {
			// Each shard holds its own sorted top-(limit+offset); the k-way
			// merge of disjoint sorted lists under a strict total order is
			// exactly the global sorted prefix.
			lists := make([][]Result, 0, len(outs))
			for _, so := range outs {
				if len(so.results) > 0 {
					lists = append(lists, so.results)
				}
			}
			if len(lists) == 1 {
				out = lists[0]
			} else if len(lists) > 1 {
				out = sortedset.Merge(lists, less)
			}
			if keep := opts.Limit + opts.Offset; len(out) > keep {
				out = out[:keep]
			}
		} else {
			for _, so := range outs {
				out = append(out, so.results...)
			}
			sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
		}
	}
	if opts.Offset > 0 {
		if opts.Offset >= len(out) {
			out = nil
		} else {
			out = out[opts.Offset:]
		}
	}
	if opts.Limit > 0 && opts.Limit < len(out) {
		out = out[:opts.Limit]
	}
	if len(out) > 0 && outs[0].exact {
		// The Eval-skipped fast path still owes the returned page its
		// matched display pairs — evaluate just these results, not the
		// whole matching set, each against its owning shard's matchers.
		for i := range out {
			page, ok := e.repo.Wiki.Get(out[i].Title)
			if !ok {
				continue
			}
			kws := outs[shardOf(out[i].Title, len(shards))].kws
			if m := query.Eval(norm, docView{page: page, title: out[i].Title, kws: kws}); m.OK {
				out[i].Matched = m.Matched
			}
		}
	}
	res.Results = out
	if opts.Limit > 0 && len(out) == opts.Limit && eligible > opts.Offset+opts.Limit {
		last := out[len(out)-1]
		res.NextCursor = EncodeCursorToken(cursorPayload{
			Sort: string(key), Order: string(order),
			Rel: last.Relevance, Rank: last.Rank, Title: last.Title,
			Epoch: epoch, Sig: sig,
		})
	}
	return res, nil
}

// enumerate streams every page that could match the normalized expression
// to visit (a superset of the match set; visit re-evaluates). Three
// strategies, best first:
//
//  1. structural candidate pruning via the metaIndex — unless disabled, and
//     unless a required keyword's posting estimate is smaller than the
//     candidate set (then the keyword driver enumerates less);
//  2. the required-keyword driver: the expression is a keyword, or an And
//     with a keyword conjunct — enumerate that keyword's hits, handing the
//     already-computed score to visit so the driving leaf is never
//     re-scored (kw/kwOK come from the caller so the driver leaf and the
//     score shortcut always agree);
//  3. an Or whose branches are all posting-derivable (structural
//     candidates or keyword hits) — enumerate the union;
//  4. full corpus scan.
//
// titles supplies the shard's sorted title partition, memoized by the
// caller; every strategy therefore stays within the shard's own universe.
//
// The return values name the strategy taken (a plan-node op and detail) and
// how many candidate titles it streamed to visit — the EXPLAIN surface's
// record of which rung of the ladder actually ran.
func (e *Engine) enumerate(sh *engineShard, planned query.Expr, titles func() []string, kw query.Keyword, kwOK, noPrune bool, visit func(title string, driverScore float64, hasDriver bool)) (op, detail string, scanned int) {
	ix, meta := sh.index, sh.meta
	mode := ModeAll
	if kw.Any {
		mode = ModeAny
	}
	kwEst := 0
	if kwOK {
		kwEst = ix.EstimateHits(kw.Text, mode)
	}

	if !noPrune {
		if cands, _, ok := meta.candidates(planned, titles); ok {
			if !kwOK || len(cands) <= kwEst {
				for _, t := range cands {
					visit(t, 0, false)
				}
				return "Candidates", "structural posting intersection", len(cands)
			}
		}
	}
	if kwOK {
		hits := ix.Hits(kw.Text, mode)
		for _, h := range hits {
			visit(h.ID, h.Score, true)
		}
		return "KeywordDriver", fmt.Sprintf("%q postings", kw.Text), len(hits)
	}
	if !noPrune {
		if union, ok := orUnion(planned, ix, meta, titles); ok {
			for _, t := range union {
				visit(t, 0, false)
			}
			return "OrUnion", "posting-set union", len(union)
		}
	}
	ts := titles()
	for _, t := range ts {
		visit(t, 0, false)
	}
	return "CorpusScan", "all shard titles", len(ts)
}

// orUnion derives a superset title set for a top-level Or whose branches
// are each posting-derivable: structural branches via the metaIndex,
// keyword branches via their hit lists. An Or of rare keywords then costs
// O(Σ hits) instead of a corpus scan.
func orUnion(planned query.Expr, ix *Index, meta *metaIndex, titles func() []string) ([]string, bool) {
	or, ok := planned.(query.Or)
	if !ok {
		return nil, false
	}
	var out []string
	for _, c := range or.Children {
		if kw, isKw := c.(query.Keyword); isKw {
			mode := ModeAll
			if kw.Any {
				mode = ModeAny
			}
			hits := ix.Hits(kw.Text, mode)
			ids := make([]string, 0, len(hits))
			for _, h := range hits {
				ids = append(ids, h.ID)
			}
			sort.Strings(ids)
			out = sortedset.Union(out, ids)
			continue
		}
		s, _, ok := meta.candidates(c, titles)
		if !ok {
			return nil, false
		}
		out = sortedset.Union(out, s)
	}
	return out, true
}

// requiredKeyword finds a keyword leaf every match must satisfy: the
// expression itself, or a direct conjunct of a top-level And.
func requiredKeyword(e query.Expr) (query.Keyword, bool) {
	switch v := e.(type) {
	case query.Keyword:
		return v, true
	case query.And:
		for _, c := range v.Children {
			if kw, ok := c.(query.Keyword); ok {
				return kw, true
			}
		}
	}
	return query.Keyword{}, false
}

// CompileMatcher returns a per-title predicate for an expression — the
// form the combined-query join applies to every joined row. Keyword
// matchers are compiled once and shared across all calls to the returned
// predicate. Unknown titles do not match. ACL is not applied here; callers
// filter principals themselves.
func (e *Engine) CompileMatcher(expr query.Expr) func(title string) bool {
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	kws := make([]*kwMatchers, len(shards))
	for i, sh := range shards {
		kws[i] = newKwMatchers(sh.index)
	}
	return func(title string) bool {
		page, ok := e.repo.Wiki.Get(title)
		if !ok {
			return false
		}
		t := page.Title.String()
		return query.Matches(expr, docView{page: page, title: t, kws: kws[shardOf(t, len(kws))]})
	}
}

// EstimateMatches returns the index's estimate of how many pages match the
// expression — posting-list sizes combined by the query's shape, never an
// enumeration, so it costs O(leaves). The combined-query planner compares
// it against the other parts' candidate-set sizes to pick the cheapest
// driving side for the keyword part.
func (e *Engine) EstimateMatches(expr query.Expr) int {
	if expr == nil {
		expr = query.All{}
	}
	norm := query.Normalize(expr)
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	n := e.repo.Wiki.Len()
	total := 0
	for _, sh := range shards {
		total += query.Estimate(norm, estimator{meta: sh.meta, ix: sh.index, n: n})
		if total >= n {
			return n
		}
	}
	return total
}

// CompileScorer returns a per-title relevance probe for a keyword query —
// what the combined-query join uses when another part already bounds the
// candidate set, so scoring one title must not enumerate the keyword's full
// posting lists. The score for a matching title is identical to the
// Relevance a full Search for the same keywords would report, because both
// reduce to the same compiled DocMatcher; non-matching and unknown titles
// return ok=false. ACL is not applied here; callers filter principals
// themselves.
func (e *Engine) CompileScorer(text string, mode Mode) func(title string) (float64, bool) {
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	kws := make([]*kwMatchers, len(shards))
	for i, sh := range shards {
		kws[i] = newKwMatchers(sh.index)
	}
	any := mode == ModeAny
	return func(title string) (float64, bool) {
		if _, ok := e.repo.Wiki.Get(title); !ok {
			return 0, false
		}
		return kws[shardOf(title, len(kws))].score(title, text, any)
	}
}

// LegacyExpr translates the flat legacy query parameters onto the
// compositional AST: the conjunction of its keyword, namespace, category
// and property-filter constraints (All when empty). Both the legacy GET
// surface and the programmatic Query API execute through this translation,
// so the two paths share one executor.
func LegacyExpr(q Query) (query.Expr, error) {
	var conj []query.Expr
	if strings.TrimSpace(q.Keywords) != "" {
		conj = append(conj, query.Keyword{Text: q.Keywords, Any: q.Mode == ModeAny})
	}
	if q.Namespace != "" {
		conj = append(conj, query.Namespace{Name: q.Namespace})
	}
	if q.Category != "" {
		conj = append(conj, query.Category{Name: q.Category})
	}
	for _, f := range q.Filters {
		op, ok := legacyOps[f.Op]
		if !ok {
			return nil, &query.Error{Code: "invalid_query", Field: "filter",
				Message: fmt.Sprintf("unknown filter operator %q", string(f.Op))}
		}
		conj = append(conj, query.Property{Name: f.Property, Op: op, Value: f.Value})
	}
	switch len(conj) {
	case 0:
		return query.All{}, nil
	case 1:
		return conj[0], nil
	}
	return query.And{Children: conj}, nil
}

// LegacyOptions translates the flat legacy query's sort, paging, ACL and
// fusion parameters onto ExecOptions, the companion of LegacyExpr. The
// legacy surface lets alpha override sort and order: a fused query is
// ordered by the fusion alone, whatever SortBy and Order say.
func LegacyOptions(q Query) ExecOptions {
	opts := ExecOptions{
		SortBy: q.SortBy, Order: q.Order,
		Limit: q.Limit, Offset: q.Offset,
		User: q.User, Alpha: q.Alpha,
	}
	if q.Alpha != nil {
		opts.SortBy, opts.Order = SortRelevance, OrderDefault
	}
	return opts
}

// legacyOps maps the legacy filter operators onto the AST vocabulary.
var legacyOps = map[FilterOp]query.Op{
	OpEquals: query.OpEq, OpNotEqual: query.OpNe,
	OpLess: query.OpLt, OpLessEq: query.OpLe,
	OpGreater: query.OpGt, OpGreatEq: query.OpGe,
	OpContains: query.OpContains,
}
