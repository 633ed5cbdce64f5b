package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestV1PagesBatch(t *testing.T) {
	sys, ts := newDurableTestServer(t, Options{})
	before := sys.Stats().WAL

	code, body := postJSON(t, ts.URL+"/api/v1/pages:batch", map[string]interface{}{
		"author": "ingest",
		"pages": []map[string]string{
			{"title": "Sensor:PB-1", "text": "[[measures::temperature]]"},
			{"title": "Sensor:PB-2", "text": "[[measures::humidity]]", "author": "override"},
			{"title": "Sensor:PB-3", "text": "[[measures::wind speed]]"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var out struct {
		Count int `json:"count"`
		Pages []struct {
			Title     string `json:"title"`
			Revisions int    `json:"revisions"`
		} `json:"pages"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Pages) != 3 || out.Pages[0].Title != "Sensor:PB-1" {
		t.Fatalf("batch response %+v", out)
	}
	p, ok := sys.Repo.Wiki.Get("Sensor:PB-2")
	if !ok || p.Revisions[0].Author != "override" {
		t.Fatalf("per-row author lost: %+v", p)
	}
	if p, _ := sys.Repo.Wiki.Get("Sensor:PB-1"); p.Revisions[0].Author != "ingest" {
		t.Fatal("top-level author not applied as default")
	}
	after := sys.Stats().WAL
	if after.LastSeq != before.LastSeq+3 {
		t.Fatalf("batch moved seq %d → %d, want +3 with no gaps", before.LastSeq, after.LastSeq)
	}
	if got := after.FormatV2.Records - before.FormatV2.Records; got != 3 {
		t.Fatalf("batch wrote %d v2 records, want 3", got)
	}

	// A row error applies the earlier rows and names the failing index.
	code, body = postJSON(t, ts.URL+"/api/v1/pages:batch", map[string]interface{}{
		"author": "ingest",
		"pages": []map[string]string{
			{"title": "Sensor:PB-4", "text": "ok"},
			{"title": "   ", "text": "blank title"},
		},
	})
	if code != http.StatusBadRequest || !strings.Contains(body, `"batch_failed"`) ||
		!strings.Contains(body, `"pages[1]"`) {
		t.Fatalf("row error: %d %s", code, body)
	}
	if _, ok := sys.Repo.Wiki.Get("Sensor:PB-4"); !ok {
		t.Fatal("rows before the failing one were rolled back")
	}

	// Validation of the envelope itself.
	if code, body = postJSON(t, ts.URL+"/api/v1/pages:batch", map[string]interface{}{"author": "x"}); code != http.StatusBadRequest || !strings.Contains(body, `"pages"`) {
		t.Fatalf("empty batch: %d %s", code, body)
	}
	if code, body = postJSON(t, ts.URL+"/api/v1/pages:batch", map[string]interface{}{"bogus": true}); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", code, body)
	}
}

// TestAdminStatsWALWritePathBlock pins the stats surface the satellites
// added: per-format record counters and the group-commit effectiveness
// numbers must be present under the wal block.
func TestAdminStatsWALWritePathBlock(t *testing.T) {
	_, ts := newDurableTestServer(t, Options{})
	var stats struct {
		Refresh struct {
			WAL map[string]json.RawMessage `json:"wal"`
		} `json:"refresh"`
	}
	getJSON(t, ts.URL+"/api/admin/stats", &stats)
	for _, key := range []string{
		"formatV1", "formatV2", "groupCommits", "groupedAppends",
		"fsyncsSaved", "meanBatch", "autoSnapshots",
	} {
		if _, ok := stats.Refresh.WAL[key]; !ok {
			t.Errorf("admin stats wal block missing %q (have %v)", key, keysOf(stats.Refresh.WAL))
		}
	}
	var v2 struct {
		Records uint64 `json:"records"`
	}
	if err := json.Unmarshal(stats.Refresh.WAL["formatV2"], &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Records == 0 {
		t.Fatal("durable server with writes reports zero v2 records")
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
