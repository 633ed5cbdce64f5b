package tagging

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/smr"
	"repro/internal/wiki"
)

// Pipeline is the end-to-end tagging system wired to an SMR. It is a
// consumer of the repository's change journal: the Parser module's tag
// fetch is kept as an incrementally maintained tag→pages mirror (tagStore),
// the similarity matrix and tag graph are updated only for tags whose page
// sets changed, and the graph's connected components are kept with their
// Bron–Kerbosch cliques, so a cloud miss re-derives only the components
// whose edges changed. FetchTagData remains the from-scratch Parser path,
// used as the fallback when the journal's bounded window has been trimmed
// past the pipeline's position; BuildCloud(FetchTagData(), opts) is the uncached
// Parser → Matrix → Graph → Clique chain every cached cloud must equal.
type Pipeline struct {
	repo *smr.Repository
	// IncludeAnnotations folds metadata property values in as tags.
	IncludeAnnotations bool

	mu      sync.Mutex
	store   *tagStore             // nil until first use
	graphs  map[float64]*simGraph // one adjacency per similarity threshold
	version uint64                // bumped whenever any tag's page set changes

	cached        *Cloud
	cachedOpts    CloudOptions
	cachedVersion uint64

	stats Stats
}

// Stats counts what the pipeline's refresh paths have done, for the admin
// endpoint. CacheHits/CacheMisses track whole-cloud cache reuse. Per cloud
// miss, CliquesComputed grows by the multi-tag components whose cliques
// Bron–Kerbosch solved on that call, CliquesReused by those whose kept
// cliques went into the cloud unchanged, and RecursionSteps by the
// solver's recursion steps on that call.
type Stats struct {
	Seq             uint64 // journal position the tag structures reflect
	DeltaUpdates    int    // journal runs applied incrementally
	FullRebuilds    int    // from-scratch tag fetches (window overrun)
	PagesApplied    int    // cumulative journal changes applied (tag entries + page re-reads)
	CacheHits       int
	CacheMisses     int
	CliquesReused   int
	CliquesComputed int
	RecursionSteps  int
}

// NewPipeline builds a tagging pipeline over a repository.
func NewPipeline(repo *smr.Repository, includeAnnotations bool) *Pipeline {
	return &Pipeline{repo: repo, IncludeAnnotations: includeAnnotations}
}

// FetchTagData is the Parser module's from-scratch path: it pulls tag
// assignments (and, optionally, annotation values) from the SMR's
// relational projection and the wiki. The incremental path (Update/Cloud)
// only falls back to it when the journal window has been trimmed past the
// pipeline's position.
func (p *Pipeline) FetchTagData() (*TagData, error) {
	pages := make(map[string][]string)
	rs, err := p.repo.QuerySQL("SELECT tag, page FROM tags")
	if err != nil {
		return nil, fmt.Errorf("tagging: fetching tags: %w", err)
	}
	for _, row := range rs.Rows {
		tag := row[0].Text0()
		pages[tag] = append(pages[tag], row[1].Text0())
	}
	if p.IncludeAnnotations {
		p.repo.Wiki.Each(func(pg *wiki.Page) {
			title := pg.Title.String()
			for _, a := range pg.Annotations {
				tag := strings.ToLower(a.Value)
				pages[tag] = append(pages[tag], title)
			}
		})
	}
	return NewTagData(pages), nil
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full    bool   // journal window overrun: a full tag refetch ran
	Applied int    // pages whose tag sets were re-read
	Seq     uint64 // journal position the pipeline now reflects
}

// Update consumes the repository's change journal since the pipeline's
// last position: changed pages have their tag sets re-read, the affected
// similarity rows are marked dirty, and the cached cloud is invalidated
// only if some tag's page set actually changed. System.Refresh calls this
// on every refresh; Cloud also calls it lazily so tag clouds are always
// served fresh.
func (p *Pipeline) Update() (UpdateStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.updateLocked()
}

func (p *Pipeline) updateLocked() (UpdateStats, error) {
	if p.store == nil {
		p.store = newTagStore(p.repo, p.IncludeAnnotations)
	}
	dirty, applied, full, err := p.store.apply(p.FetchTagData)
	if err != nil {
		// The store may have absorbed part of the run before failing; those
		// diffs cannot be re-derived on retry, so invalidate now.
		if len(dirty) > 0 {
			for _, g := range p.graphs {
				g.markDirty(dirty)
			}
			p.version++
		}
		return UpdateStats{}, err
	}
	switch {
	case full:
		p.graphs = nil // keyed by the old tag ids
		p.version++
		p.stats.FullRebuilds++
	case len(dirty) > 0:
		for _, g := range p.graphs {
			g.markDirty(dirty)
		}
		p.version++
		p.stats.DeltaUpdates++
		p.stats.PagesApplied += applied
	case applied > 0:
		// Pages changed without moving any tag's page set (pure text
		// edits): structures stand, only the position advances.
		p.stats.DeltaUpdates++
		p.stats.PagesApplied += applied
	}
	p.stats.Seq = p.store.seq
	return UpdateStats{Full: full, Applied: applied, Seq: p.store.seq}, nil
}

// Rebuild discards every maintained structure — tag mirror, similarity
// graphs with their kept components, cached cloud — and refetches the tag
// data from scratch: the recovery path and the from-scratch baseline the
// incremental benchmarks compare against (System.RefreshFull).
func (p *Pipeline) Rebuild() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	store := newTagStore(p.repo, p.IncludeAnnotations)
	if err := store.rebuild(p.FetchTagData); err != nil {
		return err
	}
	p.store = store
	p.graphs = nil
	p.cached = nil
	p.version++
	p.stats.FullRebuilds++
	p.stats.Seq = store.seq
	return nil
}

// Seq returns the journal position the pipeline currently reflects.
func (p *Pipeline) Seq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store == nil {
		return 0
	}
	return p.store.seq
}

// Cloud computes (or serves from cache) the current tag cloud. The journal
// delta is applied first, so the cloud is always current without an
// explicit refresh.
func (p *Pipeline) Cloud(opts CloudOptions) (*Cloud, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	opts = opts.withDefaults()
	if _, err := p.updateLocked(); err != nil {
		return nil, err
	}
	if p.cached != nil && p.cachedVersion == p.version && p.cachedOpts == opts {
		p.stats.CacheHits++
		return p.cached, nil
	}
	p.stats.CacheMisses++
	g := p.graphFor(opts.Threshold)
	g.settle(p.store)
	cloud, reused, computed, steps := assembleCloud(p.store, g, opts)
	p.stats.CliquesReused += reused
	p.stats.CliquesComputed += computed
	p.stats.RecursionSteps += steps
	p.cached, p.cachedOpts, p.cachedVersion = cloud, opts, p.version
	return cloud, nil
}

// graphFor returns (building if needed) the similarity graph for a
// threshold. The set of distinct thresholds in use is tiny in practice; a
// hard bound keeps a caller cycling arbitrary thresholds from accumulating
// state, and eviction spares the requested and default-threshold graphs so
// the hot path stays cached.
func (p *Pipeline) graphFor(threshold float64) *simGraph {
	if p.graphs == nil {
		p.graphs = map[float64]*simGraph{}
	}
	if g, ok := p.graphs[threshold]; ok {
		return g
	}
	if len(p.graphs) >= 8 {
		for th := range p.graphs {
			if th != DefaultSimilarityThreshold {
				delete(p.graphs, th)
			}
		}
	}
	g := newSimGraph(threshold)
	p.graphs[threshold] = g
	return g
}

// CacheStats reports whole-cloud cache hits and misses since construction.
func (p *Pipeline) CacheStats() (hits, misses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.CacheHits, p.stats.CacheMisses
}

// Stats returns refresh and cache counters for the admin endpoint.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
