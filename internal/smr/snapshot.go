package smr

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/relational"
	"repro/internal/wiki"
)

// Snapshotting persists the authoritative state — wiki pages with their
// full revision history plus user tags — under one consistent view (the
// repository mutation lock), so a snapshot taken during a write burst can
// never hold tags whose pages are missing from its own page list. The
// relational and RDF projections are not stored: restore rebuilds them
// from the pages with the write path's own row builder (relationalRows)
// and reprojectRDF, so a snapshot cannot carry a projection that disagrees
// with its pages.
//
// Format version 2 adds to version 1:
//
//   - the journal sequence number the snapshot captures, so a restore
//     continues the durable numbering instead of restarting from 1 (the
//     WAL tail and every consumer position depend on it);
//   - per-tag creation timestamps (version 1 lost them; restore stamps
//     such tags with the repository clock).
//
// Pages are listed in pages-table order and tags in tags-table order, and
// restore loads the rows in list order, so SQL without ORDER BY returns
// the restored rows in the order the original returned them. Version 2
// files written before the projections were dropped also embed a "db"
// section; it is ignored. Both versions restore through the same path:
// revision ids are renumbered on load; authors, texts, comments and
// timestamps are preserved, and the in-memory journal ends up with one
// entry per restored page and tag so derived consumers can catch up
// incrementally rather than rebuilding.

type revisionSnapshot struct {
	Author    string    `json:"author"`
	Timestamp time.Time `json:"timestamp"`
	Text      string    `json:"text"`
	Comment   string    `json:"comment,omitempty"`
}

type pageSnapshot struct {
	Title     string             `json:"title"`
	Revisions []revisionSnapshot `json:"revisions"`
}

type tagSnapshot struct {
	Page    string    `json:"page"`
	Tag     string    `json:"tag"`
	Author  string    `json:"author,omitempty"`
	Created time.Time `json:"created,omitzero"`
}

type repoSnapshot struct {
	Version int `json:"version"`
	// Seq is the journal position the snapshot captures (version >= 2):
	// restore advances the journal counter here so the log tail and new
	// mutations continue the durable numbering.
	Seq   uint64         `json:"seq,omitempty"`
	Pages []pageSnapshot `json:"pages"`
	Tags  []tagSnapshot  `json:"tags"`
}

// SaveSnapshot writes the whole repository (pages, revisions, tags) as
// JSON. The capture holds the repository's mutation lock, so concurrent
// writes see a clean point-in-time cut.
func (r *Repository) SaveSnapshot(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, err := r.saveSnapshotLocked(w)
	return err
}

// saveSnapshotLocked captures the snapshot under the caller-held lock and
// reports the journal sequence number it embeds.
func (r *Repository) saveSnapshotLocked(w io.Writer) (uint64, error) {
	snap := repoSnapshot{Version: 2, Seq: r.journal.LastSeq()}
	rs, err := r.DB.Query("SELECT title FROM pages")
	if err != nil {
		return 0, fmt.Errorf("smr: snapshotting pages: %w", err)
	}
	for _, row := range rs.Rows {
		p, ok := r.Wiki.Get(row[0].Text0())
		if !ok {
			return 0, fmt.Errorf("smr: snapshotting pages: %q has a pages row but no page", row[0].Text0())
		}
		ps := pageSnapshot{Title: p.Title.String()}
		for _, rev := range p.Revisions {
			ps.Revisions = append(ps.Revisions, revisionSnapshot{
				Author:    rev.Author,
				Timestamp: rev.Timestamp,
				Text:      rev.Text,
				Comment:   rev.Comment,
			})
		}
		snap.Pages = append(snap.Pages, ps)
	}
	if n := r.Wiki.Len(); n != len(snap.Pages) {
		return 0, fmt.Errorf("smr: snapshotting pages: %d pages but %d pages rows", n, len(snap.Pages))
	}
	rs, err = r.DB.Query("SELECT page, tag, author, created FROM tags")
	if err != nil {
		return 0, fmt.Errorf("smr: snapshotting tags: %w", err)
	}
	for _, row := range rs.Rows {
		ts := tagSnapshot{
			Page: row[0].Text0(), Tag: row[1].Text0(), Author: row[2].Text0(),
		}
		if created := row[3].Text0(); created != "" {
			if at, err := time.Parse(time.RFC3339Nano, created); err == nil {
				ts.Created = at
			}
		}
		snap.Tags = append(snap.Tags, ts)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return snap.Seq, enc.Encode(snap)
}

// LoadSnapshot restores a snapshot into an empty repository: pages go into
// the wiki store, their relational rows and RDF triples are reprojected
// from the parsed pages, and the tag rows are rebuilt from the tag list. A
// tag on a page the snapshot does not hold is an error. The journal ends
// up holding one change entry per restored page and tag — numbered from
// 1, for consumers starting cold — and then advances the sequence counter
// to the snapshot's embedded position so later mutations continue the
// durable numbering.
func (r *Repository) LoadSnapshot(rd io.Reader) error {
	if r.Wiki.Len() > 0 {
		return fmt.Errorf("smr: LoadSnapshot requires an empty repository (%d pages present)", r.Wiki.Len())
	}
	if seq := r.journal.LastSeq(); seq > 0 {
		return fmt.Errorf("smr: LoadSnapshot requires a fresh journal (at seq %d)", seq)
	}
	var snap repoSnapshot
	if err := json.NewDecoder(rd).Decode(&snap); err != nil {
		return fmt.Errorf("smr: decoding snapshot: %w", err)
	}
	switch snap.Version {
	case 1, 2:
	default:
		return fmt.Errorf("smr: unsupported snapshot version %d", snap.Version)
	}
	var pages, anns, links, tags []relational.Row
	for _, ps := range snap.Pages {
		revs := make([]wiki.Revision, len(ps.Revisions))
		for i, rev := range ps.Revisions {
			revs[i] = wiki.Revision{
				Author:    rev.Author,
				Timestamp: rev.Timestamp,
				Text:      rev.Text,
				Comment:   rev.Comment,
			}
		}
		page, err := r.Wiki.Install(ps.Title, revs)
		if err != nil {
			return fmt.Errorf("smr: restoring %s: %w", ps.Title, err)
		}
		r.reprojectRDF(page)
		pageRow, a, l := relationalRows(page)
		pages = append(pages, pageRow)
		anns = append(anns, a...)
		links = append(links, l...)
	}
	for _, ts := range snap.Tags {
		if _, ok := r.Wiki.Get(ts.Page); !ok {
			return fmt.Errorf("smr: restoring tag %q: unknown page %q", ts.Tag, ts.Page)
		}
		created := ts.Created
		if created.IsZero() {
			created = r.Wiki.Now() // version 1 stored no creation times
		} else if y := created.UTC().Year(); y < 0 || y > 9999 {
			// The created column holds RFC 3339 text: four-digit years only.
			return fmt.Errorf("smr: restoring tag %q on %q: creation time %s has no RFC 3339 form",
				ts.Tag, ts.Page, created)
		}
		tags = append(tags, tagRow(ts.Page, ts.Tag, ts.Author, created))
	}
	for _, load := range []struct {
		table string
		rows  []relational.Row
	}{{"pages", pages}, {"annotations", anns}, {"links", links}, {"tags", tags}} {
		if err := r.DB.LoadRows(load.table, load.rows); err != nil {
			return fmt.Errorf("smr: restoring %s rows: %w", load.table, err)
		}
	}
	// Journal the restored corpus so consumers starting at position 0
	// build incrementally instead of falling back to a corpus rebuild.
	r.Wiki.Each(func(p *wiki.Page) {
		r.journal.Append(ChangeUpsert, p.Title.String(), true)
	})
	for _, row := range tags {
		r.journal.AppendTag(row[0].Text0(), row[1].Text0())
	}
	// Continue the durable numbering.
	r.journal.AdvanceTo(snap.Seq)
	return nil
}

// SaveSnapshotFile writes the snapshot to a path.
func (r *Repository) SaveSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.SaveSnapshot(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadSnapshotFile restores a snapshot from a path.
func (r *Repository) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.LoadSnapshot(f)
}
