// Package ranking wires Section III into the search path: it computes
// PageRank over the repository's double link graph (Gauss–Seidel, the
// paper's production choice) and installs the scores into the search
// engine, whose executor fuses keyword relevance with link-structure
// importance into the final result order (search.ExecOptions.Alpha).
package ranking

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/search"
	"repro/internal/smr"
)

// Ranker holds the current PageRank state for a repository.
type Ranker struct {
	Method string
	Opts   pagerank.Options
	graph  *graph.Directed
	result *pagerank.Result
	scores map[string]float64
}

// New computes PageRank for the repository's link graph. An empty method
// selects Gauss–Seidel. An empty repository yields a ranker with no scores
// rather than an error, so a fresh system can still serve searches.
func New(repo *smr.Repository, method string, opts pagerank.Options) (*Ranker, error) {
	if method == "" {
		method = "Gauss-Seidel"
	}
	r := &Ranker{Method: method, Opts: opts, scores: map[string]float64{}}
	g := repo.LinkGraph()
	r.graph = g
	if g.NumNodes() == 0 {
		return r, nil
	}
	res, err := pagerank.Solve(g, method, opts)
	if err != nil {
		return nil, fmt.Errorf("ranking: %w", err)
	}
	r.result = res
	for i, id := range g.IDs() {
		r.scores[id] = res.Scores[i]
	}
	return r, nil
}

// Update recomputes PageRank for the repository's current link graph,
// warm-starting Gauss–Seidel from this ranker's previous scores (pages that
// survived keep their old score as the initial guess; new pages start from
// the teleport mass). It returns a fresh Ranker and the number of sweeps the
// warm-started solve needed — the incremental-update path for the paper's
// "scores need to be updated regularly" requirement.
func (r *Ranker) Update(repo *smr.Repository) (*Ranker, error) {
	g := repo.LinkGraph()
	next := &Ranker{Method: "Gauss-Seidel", Opts: r.Opts, graph: g, scores: map[string]float64{}}
	if g.NumNodes() == 0 {
		return next, nil
	}
	m, err := pagerank.NewMatrix(g, r.Opts)
	if err != nil {
		return nil, fmt.Errorf("ranking: %w", err)
	}
	x0 := make([]float64, g.NumNodes())
	warm := false
	for i, id := range g.IDs() {
		if s, ok := r.scores[id]; ok && s > 0 {
			x0[i] = s
			warm = true
		} else {
			x0[i] = 1 / float64(g.NumNodes())
		}
	}
	var res *pagerank.Result
	if warm {
		res = pagerank.GaussSeidelFrom(m, r.Opts, x0)
	} else {
		res = pagerank.GaussSeidel(m, r.Opts)
	}
	next.result = res
	for i, id := range g.IDs() {
		next.scores[id] = res.Scores[i]
	}
	return next, nil
}

// Scores returns the score map (page title → PageRank).
func (r *Ranker) Scores() map[string]float64 { return r.scores }

// Score returns one page's score (0 when unknown).
func (r *Ranker) Score(title string) float64 { return r.scores[title] }

// Result exposes the underlying solver result (nil for an empty graph).
func (r *Ranker) Result() *pagerank.Result { return r.result }

// Graph exposes the link graph the scores were computed on.
func (r *Ranker) Graph() *graph.Directed { return r.graph }

// Install pushes the scores into a search engine so SortRank queries work.
func (r *Ranker) Install(e *search.Engine) { e.SetRanks(r.scores) }

// TopPages returns the k best-ranked page titles.
func (r *Ranker) TopPages(k int) []string {
	type kv struct {
		title string
		score float64
	}
	all := make([]kv, 0, len(r.scores))
	for t, s := range r.scores {
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
