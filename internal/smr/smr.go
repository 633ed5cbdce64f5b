// Package smr implements the Sensor Metadata Repository of the paper
// (Section II): a Semantic-MediaWiki-style page store whose semantic
// annotations are projected simultaneously into a relational database
// (internal/relational) and an RDF graph (internal/rdf), so queries can be
// answered "using a combination of SQL and SPARQL". It also exposes the
// double linking structure (page links + semantic links) that Section III's
// PageRank variant ranks, the access-control filter of the query interface,
// and the bulk-loading path of Section V.
//
// Every mutation — PutPage, DeletePage, AddTag — is recorded once in a
// bounded, sequence-numbered change Journal. Derived layers (the search
// index and trie, PageRank, the recommender's property scores, the tagging
// pipeline's similarity structures) each remember the last sequence number
// they applied and consume Changes(seq) to stay current in O(changed pages)
// instead of rescanning the corpus; when the bounded window has been
// trimmed past a consumer's position, Changes reports !ok and the consumer
// rebuilds from scratch. See the Change type for the full contract.
//
// A repository opened from a data directory (Open rather than New) also
// appends every mutation to a durable write-ahead log (internal/wal)
// before the call returns, restores the newest snapshot plus the log tail
// on startup, and compacts the log on Snapshot — so a cold-started replica
// catches up incrementally instead of rebuilding. See durable.go.
package smr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/relational"
	"repro/internal/sparql"
	"repro/internal/wal"
	"repro/internal/wiki"
)

// IRI scheme for projecting wiki entities into the RDF graph.
const (
	PageIRIPrefix     = "smr://page/"
	PropertyIRIPrefix = "smr://prop/"
	CategoryIRI       = "smr://prop/category"
	XSDDouble         = "http://www.w3.org/2001/XMLSchema#double"
)

// PageIRI returns the IRI of a page title.
func PageIRI(title string) rdf.Term { return rdf.NewIRI(PageIRIPrefix + title) }

// PropertyIRI returns the IRI of a semantic property.
func PropertyIRI(name string) rdf.Term {
	return rdf.NewIRI(PropertyIRIPrefix + strings.ToLower(name))
}

// TitleFromIRI recovers a page title from its IRI form.
func TitleFromIRI(t rdf.Term) (string, bool) {
	if t.Kind == rdf.IRI && strings.HasPrefix(t.Value, PageIRIPrefix) {
		return t.Value[len(PageIRIPrefix):], true
	}
	return "", false
}

// Repository is the SMR: one wiki, one relational projection, one RDF
// projection, kept in sync on every page write. Every mutation is also
// recorded in a change journal so derived layers (search index, trie,
// PageRank) can update incrementally instead of rebuilding from scratch.
type Repository struct {
	Wiki    *wiki.Store
	DB      *relational.DB
	RDF     *rdf.Store
	ACL     *ACL
	journal *Journal

	// mu serializes mutations (PutPage, DeletePage, AddTag) and gives
	// SaveSnapshot one consistent view across the wiki store, the tag
	// rows and the journal position — without it a snapshot taken during
	// a write burst could hold tags whose pages are missing from its own
	// page list (a torn snapshot LoadSnapshot cannot replay). Reads of a
	// single projection keep relying on that projection's own lock.
	mu sync.RWMutex

	// Durable-journal state; zero for a purely in-memory repository.
	// Opened by smr.Open, fed by the mutation paths under mu.
	wal           *wal.Log
	walDir        string
	restoring     bool          // replaying snapshot/WAL: suppress re-appends
	snapMu        sync.Mutex    // serializes Snapshot (save + compact)
	snapshotSeq   atomic.Uint64 // seq embedded in the newest on-disk snapshot
	walAppendErrs atomic.Uint64 // WAL appends that failed: live state diverges from the log

	// Per-format record counters: records appended by this process plus
	// records replayed at Open, per payload format (codec.go).
	walV1Records atomic.Uint64
	walV1Bytes   atomic.Uint64
	walV2Records atomic.Uint64
	walV2Bytes   atomic.Uint64

	// Auto-snapshot policy state (durable.go). autoSnapBytes, autoSnapAge
	// and autoSnapStop are set once by Open before any mutation can run.
	autoSnapBytes    int64
	autoSnapAge      time.Duration
	autoSnapStop     chan struct{}
	autoSnapWG       sync.WaitGroup
	autoSnapMu       sync.Mutex // orders autoSnapWG.Add against Close's Wait
	closing          atomic.Bool
	snapInFlight     atomic.Bool // one background snapshot at a time
	autoSnapshots    atomic.Uint64
	lastSnapAt       atomic.Int64 // UnixNano of the newest snapshot (or Open)
	lastSnapWALBytes atomic.Int64 // wal.Stats().Bytes right after that snapshot

	// Replication-consumer compaction leases (durable.go).
	consumerMu sync.Mutex
	consumers  map[uint64]time.Time // guarded by consumerMu; next-needed seq → lease expiry
}

// New creates an empty repository with its relational schema in place.
func New() (*Repository, error) {
	db := relational.NewDB()
	schema := []struct {
		name string
		cols []relational.Column
	}{
		{"pages", []relational.Column{
			{Name: "title", Type: relational.TypeText, PrimaryKey: true},
			{Name: "namespace", Type: relational.TypeText, NotNull: true},
			{Name: "author", Type: relational.TypeText},
			{Name: "revisions", Type: relational.TypeInt, NotNull: true},
		}},
		{"annotations", []relational.Column{
			{Name: "page", Type: relational.TypeText, NotNull: true},
			{Name: "property", Type: relational.TypeText, NotNull: true},
			{Name: "value", Type: relational.TypeText, NotNull: true},
			{Name: "numeric", Type: relational.TypeFloat},
		}},
		{"links", []relational.Column{
			{Name: "source", Type: relational.TypeText, NotNull: true},
			{Name: "target", Type: relational.TypeText, NotNull: true},
			{Name: "kind", Type: relational.TypeText, NotNull: true},
		}},
		{"tags", []relational.Column{
			{Name: "page", Type: relational.TypeText, NotNull: true},
			{Name: "tag", Type: relational.TypeText, NotNull: true},
			{Name: "author", Type: relational.TypeText},
			// RFC 3339; when the assignment was made. Persisted by
			// snapshots so a restored tag keeps its original time.
			{Name: "created", Type: relational.TypeText},
		}},
	}
	for _, tbl := range schema {
		if err := db.CreateTable(tbl.name, tbl.cols); err != nil {
			return nil, err
		}
	}
	for _, idx := range [][2]string{
		{"annotations", "page"},
		{"annotations", "property"},
		{"links", "source"},
		{"tags", "page"},
	} {
		t, _ := db.Table(idx[0])
		if err := t.AddIndex(idx[1]); err != nil {
			return nil, err
		}
	}
	return &Repository{
		Wiki:    wiki.NewStore(),
		DB:      db,
		RDF:     rdf.NewStore(),
		ACL:     NewACL(),
		journal: NewJournal(),
	}, nil
}

// Journal exposes the repository's change log.
func (r *Repository) Journal() *Journal { return r.journal }

// Changes returns the journal entries after seq; ok is false when the
// journal has been truncated past seq (consumers must then fully rebuild).
func (r *Repository) Changes(seq uint64) ([]Change, bool) { return r.journal.Since(seq) }

// LastSeq returns the sequence number of the most recent mutation.
func (r *Repository) LastSeq() uint64 { return r.journal.LastSeq() }

// linkFingerprint summarizes a page's contribution to the double link
// structure: its deduplicated outgoing (kind, target) pairs, sorted. Two
// revisions with equal fingerprints induce the same edges in LinkGraph.
func linkFingerprint(page *wiki.Page) []string {
	seen := map[string]bool{}
	var out []string
	add := func(kind, target string) {
		key := kind + "\x00" + target
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	for _, l := range page.Links {
		add("page", l.String())
	}
	for _, a := range page.Annotations {
		if looksLikeTitle(a.Value) {
			add("semantic", wiki.ParseTitle(a.Value).String())
		}
	}
	sort.Strings(out)
	return out
}

// PutPage writes a page and refreshes both projections. This is the single
// write path of the repository: bulk loading and the HTTP server both pass
// through here, so every mutation lands in the change journal exactly once
// — and, when the repository is durable, in the write-ahead log.
//
// Durability contract: the in-memory apply happens first, the WAL append
// second. A WAL append failure is returned as an error even though the
// page is already live — the write is served until the next restart but
// was never made durable, so callers must treat the error as "not
// persisted" (retrying creates a new revision: at-least-once, like the
// delete path). Such failures are counted in WALStats.AppendErrs, and an
// unrecoverable partial write fail-stops the log so divergence cannot
// accumulate silently.
//
// The WAL fsync (the expensive part under -fsync always) happens after mu
// is released, so concurrent writers stage under the lock and then share
// one group commit — see wal.Log's commit pipeline.
func (r *Repository) PutPage(title, author, text, comment string) (*wiki.Page, error) {
	r.mu.Lock()
	page, commit, err := r.putPageLocked(title, author, text, comment)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := r.commitStaged(commit); err != nil {
		return nil, err
	}
	return page, nil
}

// putPageLocked applies one page write to all projections and stages its
// WAL record. Caller holds mu and must pass the returned commit to
// commitStaged after releasing it.
func (r *Repository) putPageLocked(title, author, text, comment string) (*wiki.Page, func() error, error) {
	// Snapshot the previous link structure before Put installs the new
	// revision. Put is copy-on-write — the old *Page stays an immutable
	// snapshot — so the fingerprint reads a stable view either way.
	var oldLinks []string
	old, existed := r.Wiki.Get(title)
	if existed {
		oldLinks = linkFingerprint(old)
	}
	page, err := r.Wiki.Put(title, author, text, comment)
	if err != nil {
		return nil, nil, err
	}
	canonical := page.Title.String()
	if err := r.reprojectRelational(page); err != nil {
		return nil, nil, fmt.Errorf("smr: relational projection of %s: %w", canonical, err)
	}
	r.reprojectRDF(page)
	// A brand-new page always changes the graph (new node); an update only
	// does when its outgoing edges differ.
	linksChanged := !existed || !slices.Equal(oldLinks, linkFingerprint(page))
	seq := r.journal.Append(ChangeUpsert, canonical, linksChanged)
	commit, err := r.stageMutation(seq, WALOp{
		Op: walOpPut, Title: canonical, Author: author, Text: text,
		Comment: comment, At: page.Revisions[len(page.Revisions)-1].Timestamp,
	})
	if err != nil {
		return nil, nil, err
	}
	return page, commit, nil
}

// PageWrite is one row of a PutPages batch.
type PageWrite struct {
	Title   string `json:"title"`
	Author  string `json:"author,omitempty"`
	Text    string `json:"text"`
	Comment string `json:"comment,omitempty"`
}

// PutPages applies a batch of page writes under a single mutation-lock
// hold and acknowledges them with a single WAL commit — under -fsync
// always a batch costs one fsync instead of one per row. Rows are applied
// in order; on a row error the earlier rows stay applied (and their staged
// records are still committed), the returned slice holds exactly the pages
// applied, and the error names the failing row — callers retry or report
// from that index. The durability contract per row matches PutPage.
func (r *Repository) PutPages(writes []PageWrite) ([]*wiki.Page, error) {
	if len(writes) == 0 {
		return nil, nil
	}
	pages := make([]*wiki.Page, 0, len(writes))
	var commit func() error
	r.mu.Lock()
	for _, w := range writes {
		page, c, err := r.putPageLocked(w.Title, w.Author, w.Text, w.Comment)
		if err != nil {
			r.mu.Unlock()
			if commit != nil {
				// Earlier rows were acked into the batch; honour their
				// durability before reporting the failure.
				r.commitStaged(commit)
			}
			return pages, fmt.Errorf("smr: batch row %d (%s): %w", len(pages), w.Title, err)
		}
		if c != nil {
			// The commit for the highest staged seq covers every earlier
			// row in the batch.
			commit = c
		}
		pages = append(pages, page)
	}
	r.mu.Unlock()
	if err := r.commitStaged(commit); err != nil {
		return pages, err
	}
	return pages, nil
}

// reprojectRelational replaces the page's rows in pages, annotations and
// links in one ReplaceRows call, so SQL readers see either the previous
// revision's rows or the new ones, never a mix.
func (r *Repository) reprojectRelational(page *wiki.Page) error {
	pageRow, anns, links := relationalRows(page)
	return r.DB.ReplaceRows(pageRow[0],
		relational.RowSet{Table: "pages", Column: "title", Rows: []relational.Row{pageRow}},
		relational.RowSet{Table: "annotations", Column: "page", Rows: anns},
		relational.RowSet{Table: "links", Column: "source", Rows: links})
}

// relationalRows builds the rows a page projects into pages, annotations
// and links. The pages row records the latest revision's author and the
// revision count. The write path replaces a page's rows with them, and
// snapshot restore bulk-loads them, so both produce the same rows in the
// same order.
func relationalRows(page *wiki.Page) (pageRow relational.Row, anns, links []relational.Row) {
	title := relational.Text(page.Title.String())
	pageRow = relational.Row{title, relational.Text(string(page.Title.Namespace)),
		relational.Text(page.Revisions[len(page.Revisions)-1].Author),
		relational.Int(int64(len(page.Revisions)))}
	anns = make([]relational.Row, 0, len(page.Annotations))
	for _, a := range page.Annotations {
		anns = append(anns, relational.Row{title,
			relational.Text(strings.ToLower(a.Property)), relational.Text(a.Value), numericValue(a.Value)})
	}
	seen := map[string]bool{}
	addLink := func(target, kind string) {
		key := target + "\x00" + kind
		if !seen[key] {
			seen[key] = true
			links = append(links, relational.Row{title, relational.Text(target), relational.Text(kind)})
		}
	}
	for _, l := range page.Links {
		addLink(l.String(), "page")
	}
	for _, a := range page.Annotations {
		if looksLikeTitle(a.Value) {
			addLink(wiki.ParseTitle(a.Value).String(), "semantic")
		}
	}
	return pageRow, anns, links
}

// numericValue is the annotations.numeric projection of a value: the
// number it spells, or NULL when it spells no finite number. ParseFloat
// accepts NaN and ±Inf, but a NaN would break the total order the numeric
// index relies on, and no SQL literal can be compared against either.
func numericValue(v string) relational.Value {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return relational.Null()
	}
	// Adding 0 stores -0 as 0, so each number has one stored form.
	return relational.Float(f + 0)
}

// looksLikeTitle reports whether an annotation value references a page
// rather than a plain literal: it parses as Namespace:Name with a known
// non-empty namespace.
func looksLikeTitle(v string) bool {
	i := strings.IndexByte(v, ':')
	if i <= 0 || i == len(v)-1 {
		return false
	}
	ns := strings.TrimSpace(v[:i])
	switch wiki.Namespace(ns) {
	case wiki.NamespaceFieldsite, wiki.NamespaceDeployment, wiki.NamespaceSensor,
		wiki.NamespaceProperty, wiki.NamespaceUser:
		return true
	}
	return false
}

func (r *Repository) reprojectRDF(page *wiki.Page) {
	title := page.Title.String()
	subj := PageIRI(title)
	r.RDF.RemoveSubject(subj)
	for _, a := range page.Annotations {
		var obj rdf.Term
		switch {
		case looksLikeTitle(a.Value):
			obj = PageIRI(wiki.ParseTitle(a.Value).String())
		default:
			if _, err := strconv.ParseFloat(a.Value, 64); err == nil {
				obj = rdf.NewTypedLiteral(a.Value, XSDDouble)
			} else {
				obj = rdf.NewLiteral(a.Value)
			}
		}
		r.RDF.Add(rdf.Triple{S: subj, P: PropertyIRI(a.Property), O: obj})
	}
	for _, c := range page.Categories {
		r.RDF.Add(rdf.Triple{S: subj, P: rdf.NewIRI(CategoryIRI), O: rdf.NewLiteral(c)})
	}
	for _, l := range page.Links {
		r.RDF.Add(rdf.Triple{S: subj, P: rdf.NewIRI("smr://prop/linksTo"), O: PageIRI(l.String())})
	}
}

// DeletePage removes a page from all three projections and reports
// whether it existed. The relational rows go first, in one ReplaceRows
// call, so an error there leaves the page fully in place. The durability
// contract matches PutPage: a WAL append failure is returned as an error
// with the page already gone.
func (r *Repository) DeletePage(title string) (bool, error) {
	r.mu.Lock()
	canonical := wiki.ParseTitle(title).String()
	if _, ok := r.Wiki.Get(canonical); !ok {
		r.mu.Unlock()
		return false, nil
	}
	err := r.DB.ReplaceRows(relational.Text(canonical),
		relational.RowSet{Table: "pages", Column: "title"},
		relational.RowSet{Table: "annotations", Column: "page"},
		relational.RowSet{Table: "links", Column: "source"},
		relational.RowSet{Table: "tags", Column: "page"})
	if err != nil {
		r.mu.Unlock()
		return false, fmt.Errorf("smr: relational projection of %s: %w", canonical, err)
	}
	r.Wiki.Delete(canonical)
	r.RDF.RemoveSubject(PageIRI(canonical))
	// Removing a node always changes the link graph.
	seq := r.journal.Append(ChangeDelete, canonical, true)
	commit, err := r.stageMutation(seq, WALOp{Op: walOpDelete, Title: canonical, At: r.Wiki.Now()})
	r.mu.Unlock()
	if err != nil {
		return true, err
	}
	return true, r.commitStaged(commit)
}

// QuerySQL runs a SQL query against the relational projection.
func (r *Repository) QuerySQL(sql string) (*relational.ResultSet, error) {
	return r.DB.Query(sql)
}

// QuerySPARQL runs a SPARQL query against the RDF projection.
func (r *Repository) QuerySPARQL(q string) (*sparql.Results, error) {
	return sparql.Exec(r.RDF, q)
}

// LinkGraph builds the double-link graph of Section III: every page is a
// node; wiki links become PageLink edges, semantic (page-valued annotation)
// links become SemanticLink edges. Link targets that are not stored pages
// still become nodes — exactly the red-link behaviour of a wiki, and the
// source of dangling nodes in the PageRank matrix.
func (r *Repository) LinkGraph() *graph.Directed {
	g := graph.NewDirected()
	r.Wiki.Each(func(p *wiki.Page) {
		src := p.Title.String()
		g.AddNode(src)
		for _, l := range p.Links {
			g.AddEdge(src, l.String(), graph.PageLink)
		}
		for _, a := range p.Annotations {
			if looksLikeTitle(a.Value) {
				g.AddEdge(src, wiki.ParseTitle(a.Value).String(), graph.SemanticLink)
			}
		}
	})
	return g
}

// Properties lists the distinct annotation property names, sorted — the
// source of the dynamic drop-down menus in the query interface.
func (r *Repository) Properties() ([]string, error) {
	rs, err := r.DB.Query("SELECT DISTINCT property FROM annotations ORDER BY property")
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		out = append(out, row[0].Text0())
	}
	return out, nil
}

// sqlQuote renders s as a SQL string literal for the read-only queries
// below.
func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// PropertyValues lists the distinct values of one property, sorted — the
// second-level dynamic drop-down.
func (r *Repository) PropertyValues(property string) ([]string, error) {
	rs, err := r.DB.Query(fmt.Sprintf(
		"SELECT DISTINCT value FROM annotations WHERE property = %s ORDER BY value",
		sqlQuote(strings.ToLower(property))))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		out = append(out, row[0].Text0())
	}
	return out, nil
}

// AddTag records a user tag on a page (Section IV's tagging input). The
// assignment is journalled as a ChangeTag entry so the tagging pipeline can
// refresh the page's tag set incrementally; link structure is untouched.
// The row is stamped with the repository clock (wiki.Store.Now), which
// snapshots persist and restore. The durability contract matches PutPage:
// a WAL append failure is returned as an error with the tag already live.
func (r *Repository) AddTag(page, tag, author string) error {
	r.mu.Lock()
	commit, err := r.addTagLocked(page, tag, author, r.Wiki.Now())
	r.mu.Unlock()
	if err != nil {
		return err
	}
	// Same durability contract as PutPage: on error the tag is live but
	// was never made durable; the error means "not persisted".
	return r.commitStaged(commit)
}

// addTagLocked is AddTag with an explicit timestamp — WAL tail replay and
// replication pass the original creation time instead of the live clock.
// Caller holds mu and must pass the returned commit to commitStaged after
// releasing it.
func (r *Repository) addTagLocked(page, tag, author string, created time.Time) (func() error, error) {
	if _, ok := r.Wiki.Get(page); !ok {
		return nil, fmt.Errorf("smr: tagging unknown page %q", page)
	}
	row := tagRow(page, tag, author, created)
	if _, err := r.DB.Insert("tags", row); err != nil {
		return nil, err
	}
	canonical, normalized := row[0].Text0(), row[1].Text0()
	seq := r.journal.AppendTag(canonical, normalized)
	return r.stageMutation(seq, WALOp{
		Op: walOpTag, Title: canonical, Tag: normalized, Author: author, At: created,
	})
}

// tagRow builds the tags row of one assignment: the canonical page title,
// the tag lower-cased and trimmed, and the creation time as RFC 3339 text.
func tagRow(page, tag, author string, created time.Time) relational.Row {
	return relational.Row{relational.Text(wiki.ParseTitle(page).String()),
		relational.Text(strings.ToLower(strings.TrimSpace(tag))), relational.Text(author),
		relational.Text(created.UTC().Format(time.RFC3339Nano))}
}

// TagCounts returns tag -> frequency over all pages. Values of metadata
// properties also count as tags when includeAnnotations is set, matching
// the paper ("as tags can also be considered the values of metadata
// properties of the page").
func (r *Repository) TagCounts(includeAnnotations bool) (map[string]int, error) {
	counts := make(map[string]int)
	rs, err := r.DB.Query("SELECT tag, COUNT(*) FROM tags GROUP BY tag")
	if err != nil {
		return nil, err
	}
	for _, row := range rs.Rows {
		counts[row[0].Text0()] = int(row[1].Int64())
	}
	if includeAnnotations {
		rs, err = r.DB.Query("SELECT value, COUNT(*) FROM annotations GROUP BY value")
		if err != nil {
			return nil, err
		}
		for _, row := range rs.Rows {
			counts[strings.ToLower(row[0].Text0())] += int(row[1].Int64())
		}
	}
	return counts, nil
}

// PageTags returns the tags of one page (sorted by tag text).
func (r *Repository) PageTags(page string) ([]string, error) {
	canonical := wiki.ParseTitle(page).String()
	rs, err := r.DB.Query(fmt.Sprintf(
		"SELECT DISTINCT tag FROM tags WHERE page = %s ORDER BY tag", sqlQuote(canonical)))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		out = append(out, row[0].Text0())
	}
	return out, nil
}
