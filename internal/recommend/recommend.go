// Package recommend implements the paper's recommendation mechanism: it
// "presents relevant pages based on the combination of query inputs and
// properties that are high-scored by the PageRank algorithm" (Section II).
//
// Properties inherit importance from the pages that carry them: a
// property's score is the summed PageRank of its annotated pages. Given the
// pages a query matched, the recommender finds other pages sharing
// (property, value) pairs with the seed set and scores each candidate by
// shared-pair property weight × the candidate's own PageRank.
//
// The recommender is a consumer of the repository's change journal: it
// remembers each page's distinct property set, so Update adjusts the
// affected property scores in O(annotations in the changed pages) instead
// of rescanning the corpus via Wiki.Each. A journal window overrun
// (smr.Repository.Changes reporting !ok) falls back to a full rebuild. All
// posting lists are sorted title sets (internal/sortedset), and every
// property score sums the installed PageRank over its carrier list in that
// title order on the rebuild, incremental and rescore paths alike, so all
// three produce bit-identical floating-point property scores.
package recommend

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/smr"
	"repro/internal/sortedset"
	"repro/internal/wiki"
)

// Recommendation is one proposed page.
type Recommendation struct {
	Title  string
	Score  float64
	Shared []string // "property=value" pairs that connected it to the seeds
}

// Stats counts what the recommender's refresh paths have done, for the
// admin endpoint.
type Stats struct {
	Seq          uint64 // journal position the property scores reflect
	DeltaUpdates int    // Update calls that applied a journal delta
	FullRebuilds int    // from-scratch rescans (construction, window overrun)
	Rescores     int    // SetRanks calls (new PageRank, property sets reused)
	PagesApplied int    // cumulative pages applied by deltas
}

// Recommender derives property importance from PageRank scores and keeps it
// current against the repository's change journal. Safe for concurrent use:
// Update/SetRanks serialize against queries.
type Recommender struct {
	mu    sync.RWMutex
	repo  *smr.Repository
	ranks map[string]float64 // guarded by mu
	// pageProps records each page's sorted distinct (lowercased) property
	// names — the state needed to retract a page's contribution when it
	// changes or disappears.
	pageProps map[string][]string // guarded by mu
	// propPages inverts pageProps: property → title-sorted carriers.
	// propScore[p] is always the sum of ranks over propPages[p] in that
	// order, the one accumulation order of the rebuild, Update and
	// SetRanks paths, which keeps property scores bit-identical across
	// them.
	propPages map[string][]string // guarded by mu
	propScore map[string]float64  // guarded by mu
	// pagePairs and pairPages are the (property, value) pair sets per page
	// and their inverted index, pair → title-sorted pages, from which
	// Recommend draws its candidates.
	pagePairs map[string][]string // guarded by mu
	pairPages map[string][]string // guarded by mu
	seq       uint64              // guarded by mu
	stats     Stats
}

// New builds a recommender from the repository and a PageRank score map
// (page title → score), scanning the current corpus once.
func New(repo *smr.Repository, ranks map[string]float64) *Recommender {
	r := &Recommender{repo: repo}
	r.Rebuild(ranks)
	return r
}

// Rebuild installs a PageRank score map and rescans the corpus from
// scratch in place — the from-scratch counterpart of Update + SetRanks.
func (r *Recommender) Rebuild(ranks map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ranks = ranks
	r.rebuildLocked()
}

// propSumLocked folds the ranks of a property's carriers in title order.
// Caller holds at least the read lock.
func (r *Recommender) propSumLocked(key string) (sum float64) {
	for _, title := range r.propPages[key] {
		sum += r.ranks[title]
	}
	return sum
}

// rebuildLocked rescans the corpus from scratch. Caller holds the write
// lock.
func (r *Recommender) rebuildLocked() {
	// Capture the journal position first: changes racing with the scan may
	// be double-applied by a later Update, which is idempotent.
	r.seq = r.repo.LastSeq()
	r.pageProps = make(map[string][]string)
	r.propPages = make(map[string][]string)
	r.propScore = make(map[string]float64)
	r.pagePairs = make(map[string][]string)
	r.pairPages = make(map[string][]string)
	// Wiki.Each iterates in sorted title order, so appends build the
	// per-property contribution lists (and pair postings) already
	// title-sorted.
	r.repo.Wiki.Each(func(p *wiki.Page) {
		title := p.Title.String()
		props := distinctProps(p)
		if len(props) == 0 {
			return
		}
		r.pageProps[title] = props
		for _, key := range props {
			r.propPages[key] = append(r.propPages[key], title)
		}
		pairs := distinctPairs(p)
		r.pagePairs[title] = pairs
		for _, pair := range pairs {
			r.pairPages[pair] = append(r.pairPages[pair], title)
		}
	})
	for key := range r.propPages {
		r.propScore[key] = r.propSumLocked(key)
	}
	r.stats.FullRebuilds++
	r.stats.Seq = r.seq
}

// distinctPairs returns the page's distinct (property, value) pair keys,
// sorted.
func distinctPairs(p *wiki.Page) []string {
	pairs := make([]string, 0, len(p.Annotations))
	for _, a := range p.Annotations {
		pairs = append(pairs, pairKey(a.Property, a.Value))
	}
	return sortedset.FromSlice(pairs)
}

// distinctProps returns the page's distinct lowercased property names,
// sorted.
func distinctProps(p *wiki.Page) []string {
	props := make([]string, 0, len(p.Annotations))
	for _, a := range p.Annotations {
		props = append(props, strings.ToLower(a.Property))
	}
	return sortedset.FromSlice(props)
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full    bool   // journal window overrun: a full rebuild ran
	Applied int    // pages whose contributions were adjusted
	Seq     uint64 // journal position the recommender now reflects
}

// Update consumes the repository's change journal since the recommender's
// last position and adjusts the affected property scores — O(annotations in
// the changed pages) instead of New's O(corpus) rescan. Tag assignments
// (smr.ChangeTag) carry no annotations and only advance the position. When
// the journal no longer retains the position, it falls back to a full
// rebuild.
func (r *Recommender) Update() UpdateStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes, ok := r.repo.Changes(r.seq)
	if !ok {
		r.rebuildLocked()
		return UpdateStats{Full: true, Seq: r.seq}
	}
	if len(changes) == 0 {
		return UpdateStats{Seq: r.seq}
	}
	stats := UpdateStats{Seq: changes[len(changes)-1].Seq}
	seen := make(map[string]bool, len(changes))
	dirty := map[string]bool{}
	for _, c := range changes {
		if c.Kind == smr.ChangeTag || seen[c.Title] {
			continue
		}
		seen[c.Title] = true
		stats.Applied++
		title := c.Title
		var newProps, newPairs []string
		if page, exists := r.repo.Wiki.Get(title); exists {
			newProps = distinctProps(page)
			newPairs = distinctPairs(page)
		}
		// Merge-diff the sorted old and new property sets: gained and lost
		// properties insert or retract one contribution. Kept properties
		// need nothing, since every score already sums the installed
		// ranks, so the common annotation edit adjusts no score at all.
		sortedset.DiffWalk(r.pageProps[title], newProps,
			func(p string) {
				list, _ := sortedset.Remove(r.propPages[p], title)
				if len(list) == 0 {
					delete(r.propPages, p)
				} else {
					r.propPages[p] = list
				}
				dirty[p] = true
			},
			func(p string) {
				r.propPages[p], _ = sortedset.Insert(r.propPages[p], title)
				dirty[p] = true
			},
			nil)
		if len(newProps) == 0 {
			delete(r.pageProps, title)
		} else {
			r.pageProps[title] = newProps
		}
		// Merge-diff the sorted old and new pair sets the same way, keeping
		// the inverted (property, value) → pages index current.
		sortedset.DiffWalk(r.pagePairs[title], newPairs,
			func(pair string) {
				list, _ := sortedset.Remove(r.pairPages[pair], title)
				if len(list) == 0 {
					delete(r.pairPages, pair)
				} else {
					r.pairPages[pair] = list
				}
			},
			func(pair string) {
				r.pairPages[pair], _ = sortedset.Insert(r.pairPages[pair], title)
			},
			nil)
		if len(newPairs) == 0 {
			delete(r.pagePairs, title)
		} else {
			r.pagePairs[title] = newPairs
		}
	}
	for key := range dirty {
		// Rescoring folds the whole carrier list in title order — the same
		// accumulation order as a rebuild, so the incremental sum stays
		// bit-identical.
		if _, ok := r.propPages[key]; ok {
			r.propScore[key] = r.propSumLocked(key)
		} else {
			delete(r.propScore, key)
		}
	}
	r.seq = stats.Seq
	r.stats.DeltaUpdates++
	r.stats.PagesApplied += stats.Applied
	r.stats.Seq = r.seq
	return stats
}

// SetRanks installs a freshly computed PageRank score map and rescores
// every property from the retained carrier lists — O(total property
// carriers), with no corpus rescan. Callers must bring the recommender up
// to date (Update) before or after installing new ranks; System.Refresh
// does both.
func (r *Recommender) SetRanks(ranks map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ranks = ranks
	for key := range r.propScore {
		r.propScore[key] = r.propSumLocked(key)
	}
	r.stats.Rescores++
}

// Seq returns the journal position the property scores reflect.
func (r *Recommender) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Stats returns refresh counters for the admin endpoint.
func (r *Recommender) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// TopProperties returns the k highest-scored properties.
func (r *Recommender) TopProperties(k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	type kv struct {
		name  string
		score float64
	}
	all := make([]kv, 0, len(r.propScore))
	for n, s := range r.propScore {
		all = append(all, kv{n, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = all[i].name
	}
	return out
}

// pairKey renders a (property, value) annotation pair.
func pairKey(property, value string) string {
	return strings.ToLower(property) + "=" + value
}

// Recommend proposes up to k pages related to the seed titles (typically
// the current search results). Seeds themselves are never recommended, and
// the ACL of the repository is honoured for the requesting user.
//
// Candidates come from the journal-maintained inverted (property, value) →
// pages index: only pages sharing at least one annotation pair with the
// seed set are scored — O(candidates), not a corpus scan. Each candidate
// is then scored with exactly the arithmetic of the scan path
// (RecommendScan), so the two orderings are identical.
func (r *Recommender) Recommend(seeds []string, user string, k int) []Recommendation {
	if k <= 0 || len(seeds) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seedSet, pairWeight := r.seedPairWeightsLocked(seeds)
	if len(pairWeight) == 0 {
		return nil
	}

	// Union the candidate lists of every positive-weight seed pair
	// (zero-weight pairs can never contribute score). Enumeration order is
	// irrelevant: the final ordering is a strict total order (score
	// descending, unique-title tie-break), so the output is identical to
	// the scan path's regardless of how candidates are discovered.
	seen := make(map[string]bool)
	var out []Recommendation
	for pair, w := range pairWeight {
		if w <= 0 {
			continue
		}
		for _, title := range r.pairPages[pair] {
			if seen[title] {
				continue
			}
			seen[title] = true
			if seedSet[title] || !r.repo.ACL.CanRead(user, title) {
				continue
			}
			page, ok := r.repo.Wiki.Get(title)
			if !ok {
				continue
			}
			if rec, ok := scorePage(page, title, pairWeight, r.ranks[title]); ok {
				out = append(out, rec)
			}
		}
	}
	return topRecommendations(out, k)
}

// RecommendScan is the pre-index corpus-scan implementation, kept as the
// baseline the recommendation benchmark compares the inverted index
// against (and as an oracle in tests: both paths must return identical
// recommendations).
func (r *Recommender) RecommendScan(seeds []string, user string, k int) []Recommendation {
	if k <= 0 || len(seeds) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seedSet, pairWeight := r.seedPairWeightsLocked(seeds)
	if len(pairWeight) == 0 {
		return nil
	}

	var out []Recommendation
	r.repo.Wiki.Each(func(p *wiki.Page) {
		title := p.Title.String()
		if seedSet[title] || !r.repo.ACL.CanRead(user, title) {
			return
		}
		if rec, ok := scorePage(p, title, pairWeight, r.ranks[title]); ok {
			out = append(out, rec)
		}
	})
	return topRecommendations(out, k)
}

// seedPairWeightsLocked resolves the seed set and the weight of each
// (property, value) pair across it: the property's global importance,
// counted once per seed page carrying it. Caller holds at least the read
// lock.
func (r *Recommender) seedPairWeightsLocked(seeds []string) (map[string]bool, map[string]float64) {
	seedSet := make(map[string]bool, len(seeds))
	pairWeight := map[string]float64{}
	for _, s := range seeds {
		canonical := wiki.ParseTitle(s).String()
		seedSet[canonical] = true
		page, ok := r.repo.Wiki.Get(canonical)
		if !ok {
			continue
		}
		for _, a := range page.Annotations {
			pairWeight[pairKey(a.Property, a.Value)] += r.propScore[strings.ToLower(a.Property)]
		}
	}
	return seedSet, pairWeight
}

// scorePage scores one candidate page against the seed pair weights, in
// annotation order — the floating-point accumulation order both Recommend
// paths share.
func scorePage(p *wiki.Page, title string, pairWeight map[string]float64, rank float64) (Recommendation, bool) {
	var score float64
	var shared []string
	seenPair := map[string]bool{}
	for _, a := range p.Annotations {
		key := pairKey(a.Property, a.Value)
		if seenPair[key] {
			continue
		}
		seenPair[key] = true
		if w, ok := pairWeight[key]; ok && w > 0 {
			score += w
			shared = append(shared, key)
		}
	}
	if score == 0 {
		return Recommendation{}, false
	}
	// Candidates are boosted by their own importance so that, among
	// equally-connected pages, the popular one is proposed first.
	score *= 1 + rank
	sort.Strings(shared)
	return Recommendation{Title: title, Score: score, Shared: shared}, true
}

// topRecommendations sorts by descending score (title tie-break) and caps
// at k.
func topRecommendations(out []Recommendation, k int) []Recommendation {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Title < out[j].Title
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
