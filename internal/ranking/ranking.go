// Package ranking wires Section III into the search path: it computes
// PageRank over the repository's double link graph (Gauss–Seidel, the
// paper's production choice) and keeps the scores current as the graph
// changes. The search engine's executor fuses keyword relevance with these
// link-structure scores into the final result order
// (search.ExecOptions.Alpha) once they are installed with
// search.Engine.SetRanks.
package ranking

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/smr"
)

// Ranker is the repository's PageRank consumer. Like the search engine and
// the recommender it consumes the change journal: it keeps the link graph
// in integer form (interned titles, per-page out-edges, the pages in title
// order) and re-derives only the changed pages' edges, so a solve costs the
// changed pages plus integer work linear in nodes and edges. The score map
// of one solve is published atomically, so readers never block on a solve.
// Update and Rebuild serialize against each other.
type Ranker struct {
	repo *smr.Repository
	cur  atomic.Pointer[snapshot]

	mu sync.Mutex
	// seq is the journal position the link state reflects. guarded by mu.
	seq uint64
	// stale records that the published scores may not reflect the link
	// graph: no solve has succeeded yet, or a solve failed after the link
	// change that asked for it was consumed. guarded by mu.
	stale bool
	// ids interns every title the link state has met, as a page or as a
	// link target; titles is its inverse. guarded by mu.
	ids map[string]int32
	// titles maps a node id back to its title. guarded by mu.
	titles []string
	// out holds each page's out-edges, one per (target, kind), in first-
	// reference order; nil for ids that are not pages. guarded by mu.
	out [][]edge
	// isPage marks the ids that are stored pages. guarded by mu.
	isPage []bool
	// pages lists the page ids sorted by title, the wiki's key order.
	// guarded by mu.
	pages []int32
	// prev holds the last solve's score by node id, 0 for ids outside it:
	// the warm start of the next solve. guarded by mu.
	prev []float64
	// pos, order and edges are orderLocked's buffers, reused by every
	// solve. guarded by mu.
	pos, order []int32
	edges      []graph.Edge
}

// edge is one typed out-edge of a page.
type edge struct {
	to   int32
	kind graph.LinkKind
}

// snapshot is one solve's published state; never mutated once stored.
type snapshot struct {
	scores map[string]float64
	solved bool // some solve has succeeded
}

// Solve reports what an Update did.
type Solve int

// Update outcomes.
const (
	Skipped Solve = iota // scores were current; no solve ran
	Warm                 // solved, seeded from the previous solve's scores
	Cold                 // solved from the uniform start: no previous solve
)

// New returns a ranker for the repository with no scores yet; the first
// Update or Rebuild solves. An empty repository yields no scores rather
// than an error, so a fresh system can still serve searches.
func New(repo *smr.Repository) *Ranker {
	r := &Ranker{repo: repo, stale: true, ids: map[string]int32{}}
	r.cur.Store(&snapshot{scores: map[string]float64{}})
	return r
}

// Update brings the scores current with the repository — the incremental
// path for the paper's "scores need to be updated regularly" requirement.
// It applies the journal since the ranker's position, re-deriving each
// changed page's edges, and skips the solve when no applied change moved a
// link (Change.LinksChanged) and the last solve succeeded. Otherwise it
// runs Gauss–Seidel warm-started from the previous scores (pages that
// survived keep their old score as the initial guess; new pages start from
// the teleport mass). When the journal no longer retains the position, the
// link state is rebuilt from a full scan and solved.
func (r *Ranker) Update() (Solve, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes, ok := r.repo.Changes(r.seq)
	linksChanged := !ok
	if !ok {
		r.rescanLocked()
	} else if len(changes) > 0 {
		linksChanged = r.applyLocked(changes)
	}
	if !linksChanged && !r.stale {
		return Skipped, nil
	}
	solved := r.cur.Load().solved
	if err := r.solveLocked(true); err != nil {
		return Skipped, err
	}
	if !solved {
		return Cold, nil
	}
	return Warm, nil
}

// Rebuild rescans the corpus and recomputes PageRank cold, ignoring the
// previous scores — the from-scratch path.
func (r *Ranker) Rebuild() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rescanLocked()
	return r.solveLocked(false)
}

// Seq returns the journal position the ranker has applied, so the journal
// prefix every consumer has passed can be trimmed.
func (r *Ranker) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// internLocked returns the node id of title, assigning the next one on
// first sight. Caller holds mu.
func (r *Ranker) internLocked(title string) int32 {
	if id, ok := r.ids[title]; ok {
		return id
	}
	id := int32(len(r.titles))
	r.ids[title] = id
	r.titles = append(r.titles, title)
	r.out = append(r.out, nil)
	r.isPage = append(r.isPage, false)
	r.prev = append(r.prev, 0)
	return id
}

// setEdgesLocked re-derives the out-edges of page id from the repository's
// current revision, collapsing repeated (target, kind) references; it
// reports whether the page exists. Caller holds mu.
func (r *Ranker) setEdgesLocked(id int32) bool {
	page, ok := r.repo.Wiki.Get(r.titles[id])
	if !ok {
		r.out[id] = nil
		return false
	}
	var out []edge
	smr.PageEdges(page, func(target string, kind graph.LinkKind) {
		e := edge{to: r.internLocked(target), kind: kind}
		for _, have := range out {
			if have == e {
				return
			}
		}
		out = append(out, e)
	})
	r.out[id] = out
	return true
}

// applyLocked applies one journal run: each changed page's edges are
// re-derived once from its current revision, and the page list gains the
// created pages and loses the deleted ones. It advances the position and
// reports whether any change moved a link. Caller holds mu.
func (r *Ranker) applyLocked(changes []smr.Change) (linksChanged bool) {
	var added []int32
	removed := false
	seen := make(map[int32]bool, len(changes))
	for _, c := range changes {
		if c.Kind == smr.ChangeTag {
			continue
		}
		linksChanged = linksChanged || c.LinksChanged
		id := r.internLocked(c.Title)
		if seen[id] {
			continue
		}
		seen[id] = true
		// Edges are re-derived even when the change moved no link: a
		// reordering of the same links keeps the fingerprint but moves the
		// targets' first references, and so the next solve's node order.
		exists := r.setEdgesLocked(id)
		switch {
		case exists && !r.isPage[id]:
			added = append(added, id)
		case !exists && r.isPage[id]:
			removed = true
		}
		r.isPage[id] = exists
	}
	if removed {
		kept := r.pages[:0]
		for _, id := range r.pages {
			if r.isPage[id] {
				kept = append(kept, id)
			}
		}
		r.pages = kept
	}
	if len(added) > 0 {
		r.pages = r.mergePagesLocked(added)
	}
	r.seq = changes[len(changes)-1].Seq
	return linksChanged
}

// mergePagesLocked returns the page list with the ids in added (pages not
// yet listed) merged in at their title positions: the added ids are sorted
// and each placed by binary search, so a run costs O(pages) integer copying
// plus O(added·log pages) title comparisons. Caller holds mu.
func (r *Ranker) mergePagesLocked(added []int32) []int32 {
	sort.Slice(added, func(i, j int) bool { return r.titles[added[i]] < r.titles[added[j]] })
	merged := make([]int32, 0, len(r.pages)+len(added))
	rest := r.pages
	for _, id := range added {
		title := r.titles[id]
		k := sort.Search(len(rest), func(i int) bool { return r.titles[rest[i]] > title })
		merged = append(merged, rest[:k]...)
		merged = append(merged, id)
		rest = rest[k:]
	}
	return append(merged, rest...)
}

// rescanLocked rebuilds the link state from the whole corpus, the fallback
// when the journal has been trimmed past the position. Titles are interned
// afresh, so ids the corpus no longer mentions are released; the previous
// scores are carried over by title for the warm start. Caller holds mu.
func (r *Ranker) rescanLocked() {
	oldIDs, oldPrev := r.ids, r.prev
	r.ids, r.titles, r.out, r.isPage, r.pages, r.prev = map[string]int32{}, nil, nil, nil, nil, nil
	// Capture the journal position first: changes racing with the scan
	// are applied again by the next Update, which is idempotent.
	r.seq = r.repo.LastSeq()
	for _, title := range r.repo.Wiki.Titles() {
		id := r.internLocked(title)
		if r.setEdgesLocked(id) {
			r.isPage[id] = true
			r.pages = append(r.pages, id)
		}
	}
	for title, id := range r.ids {
		if old, ok := oldIDs[title]; ok {
			r.prev[id] = oldPrev[old]
		}
	}
}

// orderLocked walks the link state in LinkGraph's node order — the pages
// in title order, each page's link targets placed at their first
// reference — and returns the walk (position → id) with the edges in
// position space, grouped by source. Both live in the ranker's reused
// buffers and are valid until the next call. Caller holds mu.
func (r *Ranker) orderLocked() (order []int32, edges []graph.Edge) {
	pos := slices.Grow(r.pos[:0], len(r.titles))[:len(r.titles)]
	for i := range pos {
		pos[i] = -1
	}
	order = slices.Grow(r.order[:0], len(r.titles))
	nedges := 0
	for _, id := range r.pages {
		if pos[id] < 0 {
			pos[id] = int32(len(order))
			order = append(order, id)
		}
		for _, e := range r.out[id] {
			if pos[e.to] < 0 {
				pos[e.to] = int32(len(order))
				order = append(order, e.to)
			}
		}
		nedges += len(r.out[id])
	}
	edges = slices.Grow(r.edges[:0], nedges)
	for p, id := range order {
		for _, e := range r.out[id] {
			edges = append(edges, graph.Edge{From: p, To: int(pos[e.to]), Kind: e.kind})
		}
	}
	r.pos, r.order, r.edges = pos, order, edges
	return order, edges
}

// solveLocked runs Gauss–Seidel over the current link state, seeded from
// the previous solve's scores when warm is set and any node in the walk
// has a positive previous score, and publishes the result. On failure the
// previous snapshot stays published and the ranker is marked stale.
// Caller holds mu.
func (r *Ranker) solveLocked(warm bool) error {
	r.stale = true
	order, edges := r.orderLocked()
	next := &snapshot{scores: make(map[string]float64, len(order)), solved: true}
	if n := len(order); n > 0 {
		m, err := pagerank.NewMatrixEdges(n, edges, pagerank.Options{})
		if err != nil {
			return fmt.Errorf("ranking: %w", err)
		}
		x0 := make([]float64, n)
		seeded := false
		for p, id := range order {
			if s := r.prev[id]; warm && s > 0 {
				x0[p] = s
				seeded = true
			} else {
				x0[p] = 1 / float64(n)
			}
		}
		var res *pagerank.Result
		if seeded {
			res = pagerank.GaussSeidelFrom(m, pagerank.Options{}, x0)
		} else {
			res = pagerank.GaussSeidel(m, pagerank.Options{})
		}
		clear(r.prev)
		for p, id := range order {
			r.prev[id] = res.Scores[p]
			next.scores[r.titles[id]] = res.Scores[p]
		}
	} else {
		clear(r.prev)
	}
	r.cur.Store(next)
	r.stale = false
	return nil
}

// Scores returns the score map (page title → PageRank). The map is shared
// and must not be modified.
func (r *Ranker) Scores() map[string]float64 { return r.cur.Load().scores }

// Score returns one page's score (0 when unknown).
func (r *Ranker) Score(title string) float64 { return r.cur.Load().scores[title] }

// TopPages returns the k best-ranked page titles.
func (r *Ranker) TopPages(k int) []string {
	scores := r.Scores()
	type kv struct {
		title string
		score float64
	}
	all := make([]kv, 0, len(scores))
	for t, s := range scores {
		all = append(all, kv{t, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].title < all[j].title
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].title
	}
	return out
}
