package smr

import "sync"

// ChangeKind classifies one journal entry.
type ChangeKind uint8

// Journal entry kinds.
const (
	// ChangeUpsert records a page create or update.
	ChangeUpsert ChangeKind = iota
	// ChangeDelete records a page removal.
	ChangeDelete
	// ChangeTag records a user-tag assignment on a page. The page content
	// itself is untouched, so consumers that derive state only from page
	// text and annotations (the search index, the recommender) skip these;
	// the tagging pipeline consumes them to refresh the affected tag sets.
	ChangeTag
)

// String returns a human-readable name for the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeDelete:
		return "delete"
	case ChangeTag:
		return "tag"
	default:
		return "upsert"
	}
}

// Change is one sequence-numbered repository mutation. Downstream layers
// (the search engine, the recommender, the tagging pipeline, the ranking
// layer) consume runs of changes to update their derived structures
// incrementally instead of rebuilding from the whole corpus.
//
// The contract every consumer follows:
//
//   - remember the Seq of the last change applied (the consumer's
//     "position"), starting from 0 for a consumer born over an empty
//     repository;
//   - on refresh, call Repository.Changes(position): when ok, apply the
//     returned run (coalescing by Title and re-reading the repository's
//     current state, so re-applying a change is idempotent) and advance to
//     the run's last Seq;
//   - when !ok the journal's bounded window (65 536 entries) has been
//     trimmed past the position: rebuild from the full corpus and resume
//     from Repository.LastSeq — the from-scratch fallbacks (Engine.Rebuild,
//     System.RefreshFull, and the equivalent paths in the recommender and
//     tagging pipeline) all follow this rule.
type Change struct {
	Seq   uint64
	Kind  ChangeKind
	Title string // canonical page title
	// Tag carries the (normalized) tag text of a ChangeTag entry, so the
	// tagging pipeline can apply the assignment without re-reading the
	// page's tag rows. Empty for page changes.
	Tag string
	// LinksChanged is set when the mutation altered the double link
	// structure (the page's outgoing page links or semantic links, or the
	// node set itself). Consumers that only depend on link topology — the
	// PageRank layer — can skip work for runs where it is false everywhere.
	LinksChanged bool
}

// maxJournalEntries bounds journal memory when no consumer trims it. Once
// exceeded, the oldest entries are dropped and lagging consumers observe a
// truncated journal (Since reports !ok), forcing a full rebuild.
const maxJournalEntries = 1 << 16

// Journal is the repository's change log: an append-only, bounded sequence
// of page mutations. It is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	seq     uint64
	trimmed uint64 // every seq <= trimmed has been dropped
	entries []Change
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Append records a page change and returns its sequence number.
func (j *Journal) Append(kind ChangeKind, title string, linksChanged bool) uint64 {
	return j.append(Change{Kind: kind, Title: title, LinksChanged: linksChanged})
}

// AppendTag records a tag assignment on a page.
func (j *Journal) AppendTag(title, tag string) uint64 {
	return j.append(Change{Kind: ChangeTag, Title: title, Tag: tag})
}

func (j *Journal) append(c Change) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	c.Seq = j.seq
	j.entries = append(j.entries, c)
	if len(j.entries) > maxJournalEntries {
		// Reslice rather than copy the retained entries, so an append at
		// the bound stays amortized O(1): append moves the window to a
		// fresh array when the old one runs out.
		drop := len(j.entries) - maxJournalEntries
		j.trimmed = j.entries[drop-1].Seq
		clear(j.entries[:drop]) // release the dropped titles
		j.entries = j.entries[drop:]
	}
	return j.seq
}

// AdvanceTo raises the journal's sequence counter to seq without recording
// an entry, so the next mutation is numbered seq+1. Snapshot restore uses
// it to keep sequence numbers continuous across a restart: the replayed
// corpus journals fresh low-numbered entries for consumers to apply, then
// the counter jumps to the snapshot's embedded position so the durable log
// tail (and every later write) lands at its original numbering. Already
// retained entries and the trim horizon are untouched; seq values at or
// below the current counter are ignored.
func (j *Journal) AdvanceTo(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.seq {
		j.seq = seq
	}
}

// LastSeq returns the sequence number of the most recent change (0 when
// nothing has ever been recorded).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Since returns a copy of every change with Seq > seq. ok is false when the
// journal no longer retains that range (the consumer lagged past the
// retention bound) — the consumer must then rebuild from the full corpus
// and resume from LastSeq.
func (j *Journal) Since(seq uint64) (changes []Change, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < j.trimmed {
		return nil, false
	}
	for i := range j.entries {
		if j.entries[i].Seq > seq {
			changes = append(changes, j.entries[i:]...)
			break
		}
	}
	return changes, true
}

// TrimTo drops every entry with Seq <= seq, releasing memory once all
// consumers have caught up past seq.
func (j *Journal) TrimTo(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq <= j.trimmed {
		return
	}
	keep := len(j.entries)
	for i := range j.entries {
		if j.entries[i].Seq > seq {
			keep = i
			break
		}
	}
	j.entries = append([]Change(nil), j.entries[keep:]...)
	if seq > j.trimmed {
		j.trimmed = seq
	}
	if j.trimmed > j.seq {
		j.trimmed = j.seq
	}
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}
