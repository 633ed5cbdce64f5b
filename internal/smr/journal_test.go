package smr

import (
	"fmt"
	"testing"
)

func TestJournalAppendSince(t *testing.T) {
	j := NewJournal()
	if j.LastSeq() != 0 {
		t.Fatalf("fresh journal LastSeq = %d", j.LastSeq())
	}
	if cs, ok := j.Since(0); !ok || cs != nil {
		t.Fatalf("fresh Since(0) = %v, %v", cs, ok)
	}
	j.Append(ChangeUpsert, "A", true)
	j.Append(ChangeUpsert, "B", false)
	j.Append(ChangeDelete, "A", true)
	if j.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d", j.LastSeq())
	}
	cs, ok := j.Since(0)
	if !ok || len(cs) != 3 {
		t.Fatalf("Since(0) = %v, %v", cs, ok)
	}
	if cs[0].Seq != 1 || cs[0].Title != "A" || cs[0].Kind != ChangeUpsert || !cs[0].LinksChanged {
		t.Errorf("first change = %+v", cs[0])
	}
	if cs[2].Kind != ChangeDelete {
		t.Errorf("third change = %+v", cs[2])
	}
	cs, ok = j.Since(2)
	if !ok || len(cs) != 1 || cs[0].Seq != 3 {
		t.Errorf("Since(2) = %v, %v", cs, ok)
	}
	cs, ok = j.Since(3)
	if !ok || cs != nil {
		t.Errorf("Since(tip) = %v, %v", cs, ok)
	}
}

func TestJournalTagEntries(t *testing.T) {
	j := NewJournal()
	j.Append(ChangeUpsert, "Sensor:S1", true)
	j.AppendTag("Sensor:S1", "alpine")
	cs, ok := j.Since(0)
	if !ok || len(cs) != 2 {
		t.Fatalf("Since(0) = %v, %v", cs, ok)
	}
	tag := cs[1]
	if tag.Kind != ChangeTag || tag.Title != "Sensor:S1" || tag.Tag != "alpine" || tag.LinksChanged {
		t.Errorf("tag entry = %+v", tag)
	}
	for kind, want := range map[ChangeKind]string{
		ChangeUpsert: "upsert", ChangeDelete: "delete", ChangeTag: "tag",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", kind, got, want)
		}
	}
}

func TestRepositoryJournalsTags(t *testing.T) {
	repo, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.PutPage("Sensor:J1", "t", "prose", ""); err != nil {
		t.Fatal(err)
	}
	if err := repo.AddTag("Sensor:J1", "  ALpine  ", "t"); err != nil {
		t.Fatal(err)
	}
	cs, ok := repo.Changes(0)
	if !ok || len(cs) != 2 {
		t.Fatalf("changes = %v, %v", cs, ok)
	}
	// The journalled tag is normalized exactly like the stored row.
	if cs[1].Kind != ChangeTag || cs[1].Tag != "alpine" {
		t.Errorf("tag change = %+v", cs[1])
	}
	tags, err := repo.PageTags("Sensor:J1")
	if err != nil || len(tags) != 1 || tags[0] != "alpine" {
		t.Errorf("stored tags = %v (%v)", tags, err)
	}
}

func TestJournalTrim(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 5; i++ {
		j.Append(ChangeUpsert, fmt.Sprintf("P%d", i), false)
	}
	j.TrimTo(3)
	if j.Len() != 2 {
		t.Fatalf("Len after trim = %d", j.Len())
	}
	// A consumer at or after the trim point still reads fine.
	if cs, ok := j.Since(3); !ok || len(cs) != 2 {
		t.Errorf("Since(3) = %v, %v", cs, ok)
	}
	// A consumer behind the trim point must fully rebuild.
	if _, ok := j.Since(2); ok {
		t.Error("Since(2) should report truncation")
	}
	// Trimming backwards is a no-op.
	j.TrimTo(1)
	if cs, ok := j.Since(3); !ok || len(cs) != 2 {
		t.Errorf("Since(3) after backwards trim = %v, %v", cs, ok)
	}
}

func TestJournalRetentionBound(t *testing.T) {
	j := NewJournal()
	for i := 0; i < maxJournalEntries+10; i++ {
		j.Append(ChangeUpsert, "P", false)
	}
	if j.Len() != maxJournalEntries {
		t.Fatalf("Len = %d, want %d", j.Len(), maxJournalEntries)
	}
	if _, ok := j.Since(0); ok {
		t.Error("lagging consumer should observe truncation")
	}
	if cs, ok := j.Since(j.LastSeq() - 1); !ok || len(cs) != 1 {
		t.Errorf("tip read = %v, %v", cs, ok)
	}
	// At the bound an append drops one entry; copying the retained ones
	// instead would make every write O(maxJournalEntries).
	if allocs := testing.AllocsPerRun(100, func() { j.Append(ChangeUpsert, "P", false) }); allocs != 0 {
		t.Errorf("append at the retention bound allocates %v times per call, want amortized 0", allocs)
	}
	if j.Len() != maxJournalEntries {
		t.Fatalf("Len = %d after appends at the bound, want %d", j.Len(), maxJournalEntries)
	}
}

func TestRepositoryJournalsWrites(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// New page: always a link change (new node).
	if _, err := r.PutPage("Sensor:J1", "t", "plain text, no links", ""); err != nil {
		t.Fatal(err)
	}
	// Text-only edit: same (empty) link structure.
	if _, err := r.PutPage("Sensor:J1", "t", "different plain text", ""); err != nil {
		t.Fatal(err)
	}
	// Edit that adds a page link.
	if _, err := r.PutPage("Sensor:J1", "t", "now links to [[Sensor:J2]]", ""); err != nil {
		t.Fatal(err)
	}
	// Edit that swaps the page link for an equivalent semantic link — the
	// fingerprint distinguishes link kinds, so this is a change.
	if _, err := r.PutPage("Sensor:J1", "t", "[[partOf::Sensor:J2]]", ""); err != nil {
		t.Fatal(err)
	}
	// Annotation edit that touches no link (numeric value).
	if _, err := r.PutPage("Sensor:J1", "t", "[[partOf::Sensor:J2]] [[rate::7]]", ""); err != nil {
		t.Fatal(err)
	}
	r.DeletePage("Sensor:J1")

	cs, ok := r.Changes(0)
	if !ok || len(cs) != 6 {
		t.Fatalf("changes = %v, %v", cs, ok)
	}
	wantLinks := []bool{true, false, true, true, false, true}
	wantKinds := []ChangeKind{ChangeUpsert, ChangeUpsert, ChangeUpsert, ChangeUpsert, ChangeUpsert, ChangeDelete}
	for i, c := range cs {
		if c.Title != "Sensor:J1" {
			t.Errorf("change %d title = %q", i, c.Title)
		}
		if c.LinksChanged != wantLinks[i] {
			t.Errorf("change %d LinksChanged = %v, want %v", i, c.LinksChanged, wantLinks[i])
		}
		if c.Kind != wantKinds[i] {
			t.Errorf("change %d kind = %v, want %v", i, c.Kind, wantKinds[i])
		}
		if c.Seq != uint64(i+1) {
			t.Errorf("change %d seq = %d", i, c.Seq)
		}
	}
}

func TestRepositoryJournalCanonicalTitles(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// Titles are canonicalized before journalling: whitespace variants of
	// the same title hit the same page and the second write is a text-only
	// update of it.
	if _, err := r.PutPage("Sensor: S1 ", "t", "x", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutPage("Sensor:S1", "t", "y", ""); err != nil {
		t.Fatal(err)
	}
	cs, _ := r.Changes(0)
	if len(cs) != 2 || cs[0].Title != "Sensor:S1" || cs[1].Title != "Sensor:S1" {
		t.Fatalf("changes = %+v", cs)
	}
	if cs[1].LinksChanged {
		t.Error("second write of same page with no links should not change links")
	}
}
