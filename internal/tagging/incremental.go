package tagging

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/smr"
	"repro/internal/sortedset"
)

// tagStore is the journal-maintained mirror of the Parser module's output:
// tag → page set and page → tag set, kept current against the repository's
// change journal so a refresh costs O(changed pages) instead of a full SQL
// scan plus a corpus walk. Tag names and page titles are interned to dense
// int32 ids, so a similarity row counts co-occurrence by indexing slices
// instead of hashing strings.
type tagStore struct {
	repo               *smr.Repository
	includeAnnotations bool
	seq                uint64
	tags               interner // live tags, each with its pages
	pages              interner // pages carrying a tag, each with its tags
	order              []int32  // live tag ids in tag-name order
}

// interner maps names to dense int32 ids, each with an ascending list of
// ids of the other kind: a tag's pages or a page's tags. A released id is
// reused by the next new name, so the id space stays as large as the live
// set ever was.
type interner struct {
	ids   map[string]int32
	names []string  // id -> name; "" for a free id
	lists [][]int32 // id -> ascending ids of the other kind
	free  []int32
}

func (in *interner) intern(name string) int32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	var id int32
	if n := len(in.free); n > 0 {
		id, in.free = in.free[n-1], in.free[:n-1]
	} else {
		id = int32(len(in.names))
		in.names = append(in.names, "")
		in.lists = append(in.lists, nil)
	}
	in.names[id] = name
	in.ids[name] = id
	return id
}

func (in *interner) release(id int32) {
	delete(in.ids, in.names[id])
	in.names[id], in.lists[id] = "", nil
	in.free = append(in.free, id)
}

func newTagStore(repo *smr.Repository, includeAnnotations bool) *tagStore {
	return &tagStore{
		repo:               repo,
		includeAnnotations: includeAnnotations,
		tags:               interner{ids: map[string]int32{}},
		pages:              interner{ids: map[string]int32{}},
	}
}

// tagsForPage reads the page's current distinct tag set from the
// repository: user tags from the tags table plus (optionally) lowercased
// annotation values, exactly the merge FetchTagData performs. A deleted
// page yields nil.
func (s *tagStore) tagsForPage(title string) ([]string, error) {
	userTags, err := s.repo.PageTags(title)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(userTags))
	for _, t := range userTags {
		if t != "" {
			set[t] = true
		}
	}
	if s.includeAnnotations {
		if page, ok := s.repo.Wiki.Get(title); ok {
			for _, a := range page.Annotations {
				if t := strings.ToLower(a.Value); t != "" {
					set[t] = true
				}
			}
		}
	}
	if len(set) == 0 {
		return nil, nil
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// setPageTags replaces one page's tag set and returns the ids of the tags
// whose page sets changed (the dirty rows for similarity maintenance), via
// a merge-diff of the two sorted snapshots. Every name is interned before
// any removal can release an id, so one diff never sees an id twice.
func (s *tagStore) setPageTags(title string, next []string) []int32 {
	pid, ok := s.pages.ids[title]
	if !ok {
		if len(next) == 0 {
			return nil
		}
		pid = s.pages.intern(title)
	}
	ids := make([]int32, len(next))
	for i, t := range next {
		ids[i] = s.tags.intern(t)
	}
	slices.Sort(ids)
	var dirty []int32
	sortedset.DiffWalkFunc(s.pages.lists[pid], ids, cmp.Compare[int32],
		func(id int32) {
			s.removePage(id, pid)
			dirty = append(dirty, id)
		},
		func(id int32) {
			s.addPage(id, pid)
			dirty = append(dirty, id)
		},
		nil)
	if len(ids) == 0 {
		s.pages.release(pid)
	} else {
		s.pages.lists[pid] = ids
	}
	return dirty
}

// addPage adds one page to a tag; a tag's first page puts it in the
// vocabulary.
func (s *tagStore) addPage(id, pid int32) {
	if len(s.tags.lists[id]) == 0 {
		name := s.tags.names[id]
		i := sort.Search(len(s.order), func(i int) bool { return s.tags.names[s.order[i]] >= name })
		s.order = slices.Insert(s.order, i, id)
	}
	s.tags.lists[id], _ = sortedset.InsertFunc(s.tags.lists[id], pid, cmp.Compare[int32])
}

// removePage drops one page from a tag; a tag left without pages leaves
// the vocabulary and its id is released.
func (s *tagStore) removePage(id, pid int32) {
	list, ok := sortedset.RemoveFunc(s.tags.lists[id], pid, cmp.Compare[int32])
	if !ok {
		return
	}
	if len(list) > 0 {
		s.tags.lists[id] = list
		return
	}
	name := s.tags.names[id]
	i := sort.Search(len(s.order), func(i int) bool { return s.tags.names[s.order[i]] >= name })
	s.order = slices.Delete(s.order, i, i+1)
	s.tags.release(id)
}

// rebuild reloads the store from scratch via the Parser module's full
// fetch — the fallback when the journal window has been trimmed past the
// store's position. Ids are assigned afresh, so every structure keyed by
// them must be dropped too. On a fetch error the store is left untouched
// (old mirror, old position), so a later retry still sees the lag and
// rebuilds.
func (s *tagStore) rebuild(fetch func() (*TagData, error)) error {
	// Capture the position before the scan; replaying a racing change is
	// idempotent. It is only installed once the fetch succeeds.
	seq := s.repo.LastSeq()
	td, err := fetch()
	if err != nil {
		return err
	}
	fresh := newTagStore(s.repo, s.includeAnnotations)
	fresh.seq = seq
	for _, tag := range td.Tags { // sorted, so ids ascend in name order
		id := fresh.tags.intern(tag)
		fresh.order = append(fresh.order, id)
		for _, title := range td.Pages[tag] {
			pid := fresh.pages.intern(title)
			fresh.tags.lists[id] = append(fresh.tags.lists[id], pid)
			fresh.pages.lists[pid] = append(fresh.pages.lists[pid], id) // ascending: ids go up
		}
		slices.Sort(fresh.tags.lists[id])
	}
	*s = *fresh
	return nil
}

// addTagAssignment applies one journalled tag assignment directly — no
// SQL round-trip — and returns the tag's id and whether the page's tag set
// actually grew (repeat assignments are idempotent).
func (s *tagStore) addTagAssignment(title, tag string) (int32, bool) {
	if tag == "" {
		return 0, false
	}
	pid, id := s.pages.intern(title), s.tags.intern(tag)
	list, fresh := sortedset.InsertFunc(s.pages.lists[pid], id, cmp.Compare[int32])
	if !fresh {
		return id, false
	}
	s.pages.lists[pid] = list
	s.addPage(id, pid)
	return id, true
}

// apply consumes the journal since the store's position, in order: tag
// assignments carry their tag and apply directly; page upserts/deletes
// re-read the page's full tag set (once per title — the re-read sees the
// repository's current state, so it is idempotent). It returns the ids of
// the tags whose page sets changed, the number of changes applied, and
// whether a full rebuild was forced by a journal window overrun. On a
// mid-run error the position is NOT advanced (the retry reprocesses the
// run, which is idempotent) but the dirty set accumulated so far IS
// returned: the store already absorbed those diffs, so a retry cannot
// re-derive them and the caller must invalidate similarity rows now.
func (s *tagStore) apply(fetch func() (*TagData, error)) (dirty []int32, applied int, full bool, err error) {
	changes, ok := s.repo.Changes(s.seq)
	if !ok {
		if err := s.rebuild(fetch); err != nil {
			return nil, 0, true, err
		}
		return nil, 0, true, nil
	}
	if len(changes) == 0 {
		return nil, 0, false, nil
	}
	// Titles with a page-level change anywhere in the run are re-read from
	// the repository's current state, which already reflects every live tag
	// row — so their ChangeTag entries must be dropped rather than applied
	// directly. A direct apply can resurrect a dead assignment: the entry
	// may predate a delete (and even a re-create) of the page later in the
	// same run, where the existence check alone passes but the tag row is
	// gone. Snapshot restore makes this ordering routine — it journals every
	// restored tag after every restored page, so a replayed tail holding a
	// delete+re-create lands behind tag entries for the same title.
	reread := make(map[string]bool, len(changes))
	pageChanged := make(map[string]bool, len(changes))
	for _, c := range changes {
		if c.Kind != smr.ChangeTag {
			pageChanged[c.Title] = true
		}
	}
	dirtySet := map[int32]bool{}
	for _, c := range changes {
		if c.Kind == smr.ChangeTag {
			// The existence check guards the tag-only path: the page may
			// have been deleted in an earlier run after this assignment
			// was journalled.
			if !pageChanged[c.Title] {
				if _, ok := s.repo.Wiki.Get(c.Title); ok {
					if id, grew := s.addTagAssignment(c.Title, c.Tag); grew {
						dirtySet[id] = true
					}
				}
			}
			applied++
			continue
		}
		if reread[c.Title] {
			continue
		}
		reread[c.Title] = true
		next, tagsErr := s.tagsForPage(c.Title)
		if tagsErr != nil {
			err = tagsErr
			break
		}
		for _, id := range s.setPageTags(c.Title, next) {
			dirtySet[id] = true
		}
		applied++
	}
	if err == nil {
		s.seq = changes[len(changes)-1].Seq
	}
	for id := range dirtySet {
		dirty = append(dirty, id)
	}
	slices.Sort(dirty)
	return dirty, applied, false, err
}

// simGraph is the incrementally maintained Matrix Transformation + Graph +
// Max Clique module output for one similarity threshold. Only rows of
// dirty tags are recomputed, and only against tags they co-occur with
// (cosine similarity is zero without a shared page). The graph's
// connected components are kept with their maximal cliques; a cloud miss
// re-derives only the components around tags whose edges changed or that
// appeared or vanished, and splices their cliques into the kept global
// clique list.
type simGraph struct {
	threshold float64
	fresh     bool           // nothing derived yet: the first settle computes every row
	adj       [][]int32      // tag id -> neighbour ids, ascending; nil when isolated
	dirty     map[int32]bool // rows whose page sets changed since the last settle
	changed   map[int32]bool // tags whose components must be re-derived
	known     []string       // tag id -> name its component was derived for; "" if none
	comp      []*component   // tag id -> its component
	pos       []int32        // tag id -> its index in comp[id].members
	cliques   [][]string     // every component's cliques, canonical order; replaced, never mutated
	multi     int            // components with two or more tags
	count     []int32        // recomputeRow scratch: shared pages per co-occurring tag
	touched   []int32        // recomputeRow scratch: ids with a non-zero count
}

// component is one connected component of the tag graph with its maximal
// cliques. Members are in tag-name order, so Bron–Kerbosch vertex i is
// members[i] and the solver's canonical clique order is the name order.
type component struct {
	members []int32
	cliques [][]string
	of      [][]int32 // of[i]: indices into cliques of those containing members[i]
}

func newSimGraph(threshold float64) *simGraph {
	return &simGraph{
		threshold: threshold,
		fresh:     true,
		dirty:     map[int32]bool{},
		changed:   map[int32]bool{},
	}
}

func (g *simGraph) markDirty(ids []int32) {
	if g.fresh {
		return
	}
	for _, id := range ids {
		g.dirty[id] = true
	}
}

// settle brings the adjacency up to date with the store and records in
// g.changed every tag whose edge set changed or whose id now names a
// different tag (it appeared, vanished, or was reused).
func (g *simGraph) settle(s *tagStore) {
	n := len(s.tags.names)
	g.adj, g.known, g.comp = grow(g.adj, n), grow(g.known, n), grow(g.comp, n)
	g.pos, g.count = grow(g.pos, n), grow(g.count, n)
	if g.fresh {
		for _, id := range s.order {
			g.dirty[id] = true
		}
		g.fresh = false
	}
	for id := range g.dirty {
		if g.known[id] != s.tags.names[id] {
			g.changed[id] = true
		}
		g.recomputeRow(s, id)
	}
	clear(g.dirty)
}

// grow extends an id-indexed slice with zero values to length n.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// recomputeRow rebuilds tag t's edge set from its co-occurring tags,
// adjusting the reverse entries of gained and lost neighbours. Instead of
// intersecting page lists pairwise, one walk over t's pages counts the
// shared-page overlap with every co-occurring tag — O(Σ |tags(p)|) for
// p ∈ pages(t) — in a reused counter slice cleared through the touched
// list, and the cosine is derived from the counts with the exact
// arithmetic of TagData.CosineSimilarity (tags sharing no page have
// similarity 0 and never form an edge).
func (g *simGraph) recomputeRow(s *tagStore, t int32) {
	var next []int32
	if pages := s.tags.lists[t]; len(pages) > 0 {
		for _, p := range pages {
			for _, u := range s.pages.lists[p] {
				if u != t {
					if g.count[u] == 0 {
						g.touched = append(g.touched, u)
					}
					g.count[u]++
				}
			}
		}
		for _, u := range g.touched {
			shared := g.count[u]
			g.count[u] = 0
			sim := float64(shared) / math.Sqrt(float64(len(pages))*float64(len(s.tags.lists[u])))
			if sim > g.threshold {
				next = append(next, u)
			}
		}
		g.touched = g.touched[:0]
		slices.Sort(next)
	}
	old := g.adj[t]
	if slices.Equal(old, next) {
		return
	}
	g.changed[t] = true
	sortedset.DiffWalkFunc(old, next, cmp.Compare[int32],
		func(u int32) { // u shares t's old component, re-derived anyway
			g.adj[u], _ = sortedset.RemoveFunc(g.adj[u], t, cmp.Compare[int32])
		},
		func(u int32) {
			g.adj[u], _ = sortedset.InsertFunc(g.adj[u], t, cmp.Compare[int32])
			g.changed[u] = true
		},
		nil)
	g.adj[t] = next
}

// rederive replaces the components of every changed tag. The affected set
// is the changed tags plus all members of their old components; a BFS over
// the new adjacency from it never leaves it (an edge into an untouched
// component would have marked that component's endpoint changed), so
// untouched components are not visited. The old components' cliques leave
// the global list and the new ones enter it at their canonical positions.
// It returns the multi-tag components solved and the solver's steps.
func (g *simGraph) rederive(s *tagStore, usePivot bool) (computed, steps int) {
	if len(g.changed) == 0 {
		return 0, 0
	}
	var affected []int32
	var removed [][]string
	for t := range g.changed {
		if c := g.comp[t]; c != nil {
			for _, m := range c.members {
				g.comp[m] = nil
				affected = append(affected, m)
			}
			removed = append(removed, c.cliques...)
			if len(c.members) > 1 {
				g.multi--
			}
		} else {
			affected = append(affected, t)
		}
	}
	clear(g.changed)
	// Solving in name order allocates the cliques in roughly their
	// canonical order, which keeps a cloud's clique list compact to read.
	slices.SortFunc(affected, func(a, b int32) int { return strings.Compare(s.tags.names[a], s.tags.names[b]) })
	var added [][]string
	for _, t := range affected {
		g.known[t] = s.tags.names[t]
		if s.tags.names[t] == "" || g.comp[t] != nil {
			continue // vanished, or already placed by an earlier BFS
		}
		members := []int32{t}
		g.comp[t] = &component{}
		for i := 0; i < len(members); i++ {
			for _, u := range g.adj[members[i]] {
				if g.comp[u] == nil {
					g.comp[u] = g.comp[t]
					members = append(members, u)
				}
			}
		}
		c := g.comp[t]
		st := g.solve(s, c, members, usePivot)
		if len(members) > 1 {
			g.multi++
			computed++
			steps += st
		}
		added = append(added, c.cliques...)
	}
	slices.SortFunc(removed, compareStrings)
	slices.SortFunc(added, compareStrings)
	g.cliques = spliceCliques(g.cliques, removed, added)
	return computed, steps
}

// solve fills component c with its members (in name order) and their
// maximal cliques, and returns the solver's recursion steps.
func (g *simGraph) solve(s *tagStore, c *component, members []int32, usePivot bool) int {
	slices.SortFunc(members, func(a, b int32) int { return strings.Compare(s.tags.names[a], s.tags.names[b]) })
	c.members = members
	for i, m := range members {
		g.pos[m] = int32(i)
	}
	if len(members) == 1 {
		c.cliques = [][]string{{s.tags.names[members[0]]}}
		c.of = [][]int32{{0}}
		return 0
	}
	sub := graph.NewUndirected(len(members))
	for i, m := range members {
		for _, u := range g.adj[m] {
			if j := int(g.pos[u]); i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	var cr *CliqueResult
	if usePivot {
		cr = BronKerboschPivot(sub)
	} else {
		cr = BronKerboschBasic(sub)
	}
	c.cliques = make([][]string, len(cr.Cliques))
	c.of = make([][]int32, len(members))
	for ci, cl := range cr.Cliques {
		names := make([]string, len(cl))
		for k, v := range cl {
			names[k] = s.tags.names[members[v]]
			c.of[v] = append(c.of[v], int32(ci))
		}
		c.cliques[ci] = names
	}
	return cr.RecursionSteps
}

// compareStrings orders string slices lexicographically (prefix first),
// the name-space image of sortCliques' vertex order.
func compareStrings(a, b []string) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if c := strings.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// spliceCliques returns a new canonical clique list: list without the
// cliques in removed, plus those in added. removed and added are sorted;
// every clique in removed is in list. Components partition the
// vocabulary, so list holds no two equal cliques, and a clique equal to a
// removed one is the same component's clique. Each edit is located by
// binary search and the runs between edits are copied whole. An empty
// result is nil, as BuildCloud reports no cliques.
func spliceCliques(list, removed, added [][]string) [][]string {
	n := len(list) - len(removed) + len(added)
	if n == 0 {
		return nil
	}
	out := make([][]string, 0, n)
	i := 0 // next element of list to copy
	for len(removed) > 0 || len(added) > 0 {
		drop := len(added) == 0 || (len(removed) > 0 && compareStrings(removed[0], added[0]) <= 0)
		c := added
		if drop {
			c = removed
		}
		k := i + sort.Search(len(list)-i, func(x int) bool { return compareStrings(list[i+x], c[0]) >= 0 })
		out = append(out, list[i:k]...)
		i = k
		if drop {
			i++
			removed = removed[1:]
		} else {
			out = append(out, added[0])
			added = added[1:]
		}
	}
	return append(out, list[i:]...)
}

// assembleCloud builds a Cloud from the store and a settled similarity
// graph: the changed components are re-derived, then the Eq.-6 entries
// are built for the tags that pass MinFrequency — exactly the output
// BuildCloud produces on the same data; steps counts the clique work
// performed on this call. The cloud's Cliques is the graph's current
// list, which a later change replaces but never mutates.
func assembleCloud(s *tagStore, g *simGraph, opts CloudOptions) (cloud *Cloud, reusedComps, computedComps, steps int) {
	opts = opts.withDefaults()
	computedComps, steps = g.rederive(s, opts.UsePivot)
	all := g.cliques
	cloud = &Cloud{Cliques: all}

	var kept []int32
	tmin, tmax := maxInt32, 0
	for _, id := range s.order {
		f := len(s.tags.lists[id])
		if f < opts.MinFrequency {
			continue
		}
		kept = append(kept, id)
		tmin, tmax = min(tmin, f), max(tmax, f)
	}
	totalCliques := max(len(all), 1) // Eq. 6: C is "always ≥ 1"
	for _, id := range kept {
		c := g.comp[id]
		local := c.of[g.pos[id]]
		ids := make([]int, len(local))
		maxOrder := 0
		for k, ci := range local {
			clique := c.cliques[ci]
			ids[k] = sort.Search(len(all), func(i int) bool { return compareStrings(all[i], clique) >= 0 })
			maxOrder = max(maxOrder, len(clique))
		}
		f := len(s.tags.lists[id])
		cloud.Entries = append(cloud.Entries, Entry{
			Tag:            s.tags.names[id],
			Frequency:      f,
			Cliques:        len(ids),
			MaxCliqueOrder: maxOrder,
			CliqueIDs:      ids,
			FontSize:       FontSize(f, tmin, tmax, len(ids), maxOrder, totalCliques, opts.MaxFontSize),
		})
	}
	return cloud, g.multi - computedComps, computedComps, steps
}

const maxInt32 = 1<<31 - 1
