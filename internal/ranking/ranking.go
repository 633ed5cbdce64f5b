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
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/smr"
)

// Ranker is the repository's PageRank consumer. The graph, solver result
// and score map of one solve form an immutable snapshot that is published
// atomically, so readers never block on a solve and every read method sees
// one solve's state. Update and Rebuild serialize against each other.
type Ranker struct {
	repo *smr.Repository
	cur  atomic.Pointer[snapshot]

	mu sync.Mutex
	// stale records that the published scores may not reflect the link
	// graph: no solve has succeeded yet, or a solve failed after the caller
	// consumed the link change that asked for it. guarded by mu.
	stale bool
}

// snapshot is one solve's published state; never mutated once stored.
type snapshot struct {
	graph  *graph.Directed // nil until the first solve succeeds
	result *pagerank.Result
	scores map[string]float64
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
	r := &Ranker{repo: repo, stale: true}
	r.cur.Store(&snapshot{scores: map[string]float64{}})
	return r
}

// Update brings the scores current with the repository's link graph — the
// incremental path for the paper's "scores need to be updated regularly"
// requirement. It skips the solve when linksChanged is false and the last
// solve succeeded; otherwise it runs Gauss–Seidel warm-started from the
// previous scores (pages that survived keep their old score as the initial
// guess; new pages start from the teleport mass).
func (r *Ranker) Update(linksChanged bool) (Solve, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !linksChanged && !r.stale {
		return Skipped, nil
	}
	prev := r.cur.Load()
	if err := r.solveLocked(prev.scores); err != nil {
		return Skipped, err
	}
	if prev.graph == nil {
		return Cold, nil
	}
	return Warm, nil
}

// Rebuild recomputes PageRank cold, ignoring the previous scores — the
// from-scratch path.
func (r *Ranker) Rebuild() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.solveLocked(nil)
}

// solveLocked runs Gauss–Seidel over the current link graph, seeded from
// prev when any surviving page has a positive previous score, and
// publishes the result. On failure the previous snapshot stays published
// and the ranker is marked stale. Caller holds mu.
func (r *Ranker) solveLocked(prev map[string]float64) error {
	r.stale = true
	g := r.repo.LinkGraph()
	next := &snapshot{graph: g, scores: map[string]float64{}}
	if g.NumNodes() > 0 {
		m, err := pagerank.NewMatrix(g, pagerank.Options{})
		if err != nil {
			return fmt.Errorf("ranking: %w", err)
		}
		x0 := make([]float64, g.NumNodes())
		warm := false
		for i, id := range g.IDs() {
			if s, ok := prev[id]; ok && s > 0 {
				x0[i] = s
				warm = true
			} else {
				x0[i] = 1 / float64(g.NumNodes())
			}
		}
		if warm {
			next.result = pagerank.GaussSeidelFrom(m, pagerank.Options{}, x0)
		} else {
			next.result = pagerank.GaussSeidel(m, pagerank.Options{})
		}
		for i, id := range g.IDs() {
			next.scores[id] = next.result.Scores[i]
		}
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
