package smr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotRoundTripPreservesEverything(t *testing.T) {
	r := seedRepo(t)
	// Add revision history and tags so the snapshot has depth.
	fixed := time.Date(2011, 4, 11, 9, 30, 0, 0, time.UTC)
	r.Wiki.SetClock(func() time.Time { return fixed })
	put(t, r, "Sensor:Wind-01", "[[partOf::Deployment:SnowStudy]] [[measures::gust speed]]")
	if err := r.AddTag("Sensor:Wind-01", "alpine", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTag("Sensor:Temp-01", "valley", "bob"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := newRepo(t)
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Page count and revision history.
	if restored.Wiki.Len() != r.Wiki.Len() {
		t.Fatalf("pages = %d, want %d", restored.Wiki.Len(), r.Wiki.Len())
	}
	p, ok := restored.Wiki.Get("Sensor:Wind-01")
	if !ok || len(p.Revisions) != 2 {
		t.Fatalf("Wind-01 revisions = %+v", p)
	}
	if !p.Revisions[1].Timestamp.Equal(fixed) {
		t.Errorf("timestamp not preserved: %v", p.Revisions[1].Timestamp)
	}
	if p.Revisions[1].Author != "tester" {
		t.Errorf("author = %q", p.Revisions[1].Author)
	}
	// Latest-revision projections rebuilt.
	rs, err := restored.QuerySQL("SELECT value FROM annotations WHERE page = 'Sensor:Wind-01' AND property = 'measures'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "gust speed" {
		t.Errorf("restored annotation = %v", rs.Rows)
	}
	res, err := restored.QuerySPARQL(`SELECT ?o WHERE { <smr://page/Sensor:Wind-01> <smr://prop/measures> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["o"].Value != "gust speed" {
		t.Errorf("restored RDF = %v", res.Rows)
	}
	// Tags survive.
	tags, err := restored.PageTags("Sensor:Wind-01")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != "alpine" {
		t.Errorf("restored tags = %v", tags)
	}
	// Link graphs identical.
	a, b := r.LinkGraph(), restored.LinkGraph()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Errorf("link graph mismatch: %d/%d vs %d/%d nodes/edges",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
}

// TestSaveSnapshotConsistentUnderConcurrentWrites is the torn-snapshot
// regression: SaveSnapshot used to read the wiki pages and the tag rows in
// two unsynchronized passes, so a PutPage+AddTag landing between them
// produced a snapshot whose tags referenced pages missing from its own
// page list — and LoadSnapshot choked replaying them. Every snapshot taken
// during a write burst must load cleanly.
func TestSaveSnapshotConsistentUnderConcurrentWrites(t *testing.T) {
	r := newRepo(t)
	put(t, r, "Sensor:Base", "[[measures::wind speed]]")
	// One bounded writer burst of page+tag pairs; the main goroutine
	// snapshots continuously until the burst ends. Every captured
	// snapshot must be internally consistent — each tag row's page
	// present in the page list — and replayable into a fresh repository.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 100; i++ {
			title := fmt.Sprintf("Sensor:Churn-%d", i)
			if _, err := r.PutPage(title, "w", "[[measures::temperature]]", ""); err != nil {
				t.Error(err)
				return
			}
			if err := r.AddTag(title, "burst", "w"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var captured []bytes.Buffer
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		var buf bytes.Buffer
		if err := r.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		captured = append(captured, buf)
	}
	wg.Wait()
	for i := range captured {
		var snap struct {
			Pages []struct {
				Title string `json:"title"`
			} `json:"pages"`
			Tags []struct {
				Page string `json:"page"`
			} `json:"tags"`
		}
		if err := json.Unmarshal(captured[i].Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		pages := make(map[string]bool, len(snap.Pages))
		for _, p := range snap.Pages {
			pages[p.Title] = true
		}
		for _, tag := range snap.Tags {
			if !pages[tag.Page] {
				t.Fatalf("snapshot %d torn: tag on %q but the page is missing from the page list", i, tag.Page)
			}
		}
	}
	// And the final capture round-trips.
	restored := newRepo(t)
	if err := restored.LoadSnapshot(bytes.NewReader(captured[len(captured)-1].Bytes())); err != nil {
		t.Fatalf("final snapshot does not load: %v", err)
	}
}

// TestLoadSnapshotSeqContinuity: restore must leave the journal counter at
// the snapshot's embedded sequence number, not at the number of replayed
// entries — deletes and superseded revisions make the former larger, and
// the durable log tail (plus every later mutation) is numbered from it.
func TestLoadSnapshotSeqContinuity(t *testing.T) {
	r := newRepo(t)
	put(t, r, "Sensor:Keep", "[[measures::wind speed]]")
	put(t, r, "Sensor:Gone", "[[measures::temperature]]")
	if ok, err := r.DeletePage("Sensor:Gone"); !ok || err != nil {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if r.LastSeq() != 3 {
		t.Fatalf("live seq = %d, want 3", r.LastSeq())
	}
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newRepo(t)
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.LastSeq() != 3 {
		t.Fatalf("restored seq = %d, want 3 (journal numbering must survive restore)", restored.LastSeq())
	}
	// The replayed corpus is still journalled below the snapshot seq for
	// consumers starting cold.
	changes, ok := restored.Changes(0)
	if !ok || len(changes) == 0 {
		t.Fatalf("restored journal unusable from 0: ok=%v entries=%d", ok, len(changes))
	}
	if _, err := restored.PutPage("Sensor:Next", "t", "x", ""); err != nil {
		t.Fatal(err)
	}
	if restored.LastSeq() != 4 {
		t.Fatalf("next mutation got seq %d, want 4", restored.LastSeq())
	}
}

// TestSnapshotPreservesTagTimestamps: tag rows carry their creation time,
// the snapshot persists it (format v2), and restore keeps it rather than
// stamping tags with whatever the replay clock last showed.
func TestSnapshotPreservesTagTimestamps(t *testing.T) {
	r := newRepo(t)
	revTime := time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC)
	tagTime := time.Date(2011, 6, 7, 8, 9, 10, 11, time.UTC)
	r.Wiki.SetClock(func() time.Time { return revTime })
	put(t, r, "Sensor:T", "[[measures::wind speed]]")
	r.Wiki.SetClock(func() time.Time { return tagTime })
	if err := r.AddTag("Sensor:T", "alpine", "amy"); err != nil {
		t.Fatal(err)
	}
	readCreated := func(r *Repository) time.Time {
		t.Helper()
		rs, err := r.QuerySQL("SELECT created FROM tags WHERE page = 'Sensor:T'")
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("created query: %v rows=%v", err, rs)
		}
		at, err := time.Parse(time.RFC3339Nano, rs.Rows[0][0].Text0())
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	if got := readCreated(r); !got.Equal(tagTime) {
		t.Fatalf("live tag created = %v, want %v", got, tagTime)
	}
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newRepo(t)
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readCreated(restored); !got.Equal(tagTime) {
		t.Fatalf("restored tag created = %v, want %v (not the revision clock %v)", got, tagTime, revTime)
	}
}

// TestLoadSnapshotV1ReplayClock loads a version-1 snapshot (no stored tag
// times) and checks its tags are stamped with the live clock, not the last
// restored revision's timestamp, and that the clock is left as it was.
func TestLoadSnapshotV1ReplayClock(t *testing.T) {
	oldRev := time.Date(2009, 9, 9, 9, 9, 9, 0, time.UTC)
	v1 := map[string]interface{}{
		"version": 1,
		"pages": []map[string]interface{}{{
			"title": "Sensor:Old",
			"revisions": []map[string]interface{}{{
				"author": "amy", "timestamp": oldRev, "text": "[[measures::wind speed]]",
			}},
		}},
		"tags": []map[string]interface{}{{"page": "Sensor:Old", "tag": "legacy", "author": "amy"}},
	}
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	r := newRepo(t)
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	r.Wiki.SetClock(func() time.Time { return now })
	if err := r.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	// Revision kept its historic timestamp...
	p, ok := r.Wiki.Get("Sensor:Old")
	if !ok || !p.Revisions[0].Timestamp.Equal(oldRev) {
		t.Fatalf("revision timestamp = %+v, want %v", p, oldRev)
	}
	// ...the tag did NOT inherit it.
	rs, err := r.QuerySQL("SELECT created FROM tags WHERE page = 'Sensor:Old'")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("created query: %v rows=%v", err, rs)
	}
	at, err := time.Parse(time.RFC3339Nano, rs.Rows[0][0].Text0())
	if err != nil {
		t.Fatal(err)
	}
	if !at.Equal(now) {
		t.Fatalf("v1 tag stamped %v, want the live clock %v (replay clock leaked)", at, now)
	}
	// And the original clock is back after the load.
	if got := r.Wiki.Now(); !got.Equal(now) {
		t.Fatalf("clock not restored: %v", got)
	}
}

func TestLoadSnapshotRequiresEmptyRepo(t *testing.T) {
	r := seedRepo(t)
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadSnapshot(&buf); err == nil {
		t.Error("load into non-empty repository accepted")
	}
}

func TestLoadSnapshotBadInput(t *testing.T) {
	r := newRepo(t)
	if err := r.LoadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	r2 := newRepo(t)
	if err := r2.LoadSnapshot(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestSnapshotFileHelpers(t *testing.T) {
	r := seedRepo(t)
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	restored := newRepo(t)
	if err := restored.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Wiki.Len() != r.Wiki.Len() {
		t.Errorf("pages = %d, want %d", restored.Wiki.Len(), r.Wiki.Len())
	}
	if err := restored.LoadSnapshotFile("/no/such/file"); err == nil {
		t.Error("missing file accepted")
	}
}

// legacySnapshot is a version-2 snapshot in the older layout that also
// embeds a "db" section: a serialized copy of the relational projection.
// Its one page's text projects two annotations and one semantic link, but
// the embedded annotations and links tables are empty. tags is the tag
// list and tagRows the embedded tags table's rows.
func legacySnapshot(tags, tagRows string) string {
	return fmt.Sprintf(`{"version":2,"seq":3,
 "pages":[{"title":"Sensor:S1","revisions":[{"author":"amy","timestamp":"2011-04-11T00:00:00Z",
  "text":"[[measures::wind speed]] [[partOf::Deployment:D1]]"}]}],
 "tags":[%s],
 "db":{"version":1,"tables":[
  {"name":"annotations","columns":[{"name":"page","type":"TEXT","not_null":true},
   {"name":"property","type":"TEXT","not_null":true},{"name":"value","type":"TEXT","not_null":true},
   {"name":"numeric","type":"FLOAT"}],"indexes":["page","property"],"rows":[]},
  {"name":"links","columns":[{"name":"source","type":"TEXT","not_null":true},
   {"name":"target","type":"TEXT","not_null":true},{"name":"kind","type":"TEXT","not_null":true}],
   "indexes":["source"],"rows":[]},
  {"name":"pages","columns":[{"name":"title","type":"TEXT","primary_key":true},
   {"name":"namespace","type":"TEXT","not_null":true},{"name":"author","type":"TEXT"},
   {"name":"revisions","type":"INT","not_null":true}],"indexes":[],
   "rows":[[{"t":"text","s":"Sensor:S1"},{"t":"text","s":"Sensor"},{"t":"text","s":"amy"},{"t":"int","i":1}]]},
  {"name":"tags","columns":[{"name":"page","type":"TEXT","not_null":true},
   {"name":"tag","type":"TEXT","not_null":true},{"name":"author","type":"TEXT"},
   {"name":"created","type":"TEXT"}],"indexes":["page"],"rows":[%s]}]}}`, tags, tagRows)
}

// TestLoadSnapshotReprojectsRelationalRows: the relational projection is
// rebuilt from the snapshot's pages, never taken from an embedded copy. A
// snapshot whose embedded annotations and links are missing must still
// answer SQL with the rows its page text projects.
func TestLoadSnapshotReprojectsRelationalRows(t *testing.T) {
	r := newRepo(t)
	if err := r.LoadSnapshot(strings.NewReader(legacySnapshot("", ""))); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]int64{
		"SELECT COUNT(*) FROM pages":                                        1,
		"SELECT COUNT(*) FROM annotations WHERE page = 'Sensor:S1'":         2,
		"SELECT COUNT(*) FROM links WHERE source = 'Sensor:S1'":             1,
		"SELECT COUNT(*) FROM annotations WHERE property = 'measures'":      1,
		"SELECT COUNT(*) FROM links WHERE target = 'Deployment:D1'":         1,
		"SELECT COUNT(*) FROM pages WHERE author = 'amy' AND revisions = 1": 1,
	} {
		rs, err := r.QuerySQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Rows[0][0].Int64(); got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}
}

// TestLoadSnapshotRejectsTagOnMissingPage: a tag naming a page the
// snapshot does not hold is refused, whether or not the snapshot embeds
// a relational copy that agrees with it.
func TestLoadSnapshotRejectsTagOnMissingPage(t *testing.T) {
	orphan := `{"page":"Sensor:Gone","tag":"stale","author":"amy","created":"2011-04-11T00:00:01Z"}`
	row := `[{"t":"text","s":"Sensor:Gone"},{"t":"text","s":"stale"},{"t":"text","s":"amy"},` +
		`{"t":"text","s":"2011-04-11T00:00:01Z"}]`
	for name, snap := range map[string]string{
		"with embedded rows": legacySnapshot(orphan, row),
		"version 1": `{"version":1,"pages":[{"title":"Sensor:S1","revisions":[{"author":"amy",` +
			`"timestamp":"2011-04-11T00:00:00Z","text":"x"}]}],"tags":[` + orphan + `]}`,
	} {
		r := newRepo(t)
		if err := r.LoadSnapshot(strings.NewReader(snap)); err == nil {
			tags, _ := r.PageTags("Sensor:Gone")
			t.Errorf("%s: snapshot tagging a page it does not hold loaded (PageTags = %v)", name, tags)
		}
	}
}
