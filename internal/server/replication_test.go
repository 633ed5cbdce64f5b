package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	sensormeta "repro"
	"repro/internal/smr"
	"repro/internal/wal"
)

// newDurableTestServer builds a durable system in a tmpdir behind an
// httptest server.
func newDurableTestServer(t *testing.T, opts Options) (*sensormeta.System, *httptest.Server) {
	t.Helper()
	sys, err := sensormeta.Open(t.TempDir(), smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, p := range []struct{ title, text string }{
		{"Sensor:R-1", "[[measures::temperature]] alpine station"},
		{"Sensor:R-2", "[[measures::wind speed]] ridge station"},
		{"Sensor:R-3", "[[measures::humidity]] valley station"},
	} {
		if _, err := sys.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, opts)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sys, ts
}

type feedResponse struct {
	From    uint64 `json:"from"`
	LastSeq uint64 `json:"lastSeq"`
	Records []struct {
		Seq  uint64 `json:"seq"`
		Data []byte `json:"data"`
	} `json:"records"`
}

func TestAdminWALFeed(t *testing.T) {
	sys, ts := newDurableTestServer(t, Options{})
	var feed feedResponse
	getJSON(t, ts.URL+"/api/admin/wal?from=0", &feed)
	if feed.LastSeq != sys.Repo.LastSeq() || len(feed.Records) != 3 {
		t.Fatalf("feed: lastSeq %d records %d, want %d and 3", feed.LastSeq, len(feed.Records), sys.Repo.LastSeq())
	}
	if feed.Records[0].Seq != 1 {
		t.Fatalf("first record seq %d", feed.Records[0].Seq)
	}
	op, err := smr.DecodeWALOp(feed.Records[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if op.Op != "put" || op.Title != "Sensor:R-1" {
		t.Fatalf("first record payload %+v", op)
	}

	// Resume + batch cap.
	getJSON(t, ts.URL+"/api/admin/wal?from=1&max=1", &feed)
	if len(feed.Records) != 1 || feed.Records[0].Seq != 2 {
		t.Fatalf("resumed batch: %+v", feed.Records)
	}

	// At the head: empty, no error.
	getJSON(t, ts.URL+"/api/admin/wal?from=3", &feed)
	if len(feed.Records) != 0 || feed.LastSeq != 3 {
		t.Fatalf("head fetch: %+v", feed)
	}

	// Bad parameters.
	for _, q := range []string{"from=x", "max=0", "wait=banana"} {
		if code, _ := get(t, ts.URL+"/api/admin/wal?"+q); code != http.StatusBadRequest {
			t.Fatalf("wal?%s: status %d, want 400", q, code)
		}
	}
}

func TestAdminWALLongPollWakesOnWrite(t *testing.T) {
	sys, ts := newDurableTestServer(t, Options{})
	head := sys.Repo.LastSeq()
	type result struct {
		feed feedResponse
		took time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		var feed feedResponse
		resp, err := http.Get(ts.URL + "/api/admin/wal?from=3&wait=30s")
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		json.NewDecoder(resp.Body).Decode(&feed)
		done <- result{feed: feed, took: time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := sys.PutPage("Sensor:R-4", "t", "[[measures::ozone]]", ""); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.took > 10*time.Second {
			t.Fatalf("long-poll did not wake on append (took %v)", r.took)
		}
		if len(r.feed.Records) != 1 || r.feed.Records[0].Seq != head+1 {
			t.Fatalf("long-poll records %+v, want seq %d", r.feed.Records, head+1)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll never returned")
	}
}

func TestAdminWALCompactedAndNotDurable(t *testing.T) {
	// Tiny segments so compaction actually removes the early records (the
	// active segment always survives TruncatePrefix).
	sys, err := sensormeta.Open(t.TempDir(), smr.DurableOptions{Fsync: wal.SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, title := range []string{"Sensor:C-1", "Sensor:C-2", "Sensor:C-3", "Sensor:C-4"} {
		if _, err := sys.PutPage(title, "t", "[[measures::temperature]]", ""); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	if _, err := sys.Repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/api/admin/wal?from=0")
	if code != http.StatusGone || !strings.Contains(body, "wal_compacted") {
		t.Fatalf("compacted fetch: %d %s", code, body)
	}

	mem, err := sensormeta.New()
	if err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(New(mem))
	defer mts.Close()
	code, body = get(t, mts.URL+"/api/admin/wal")
	if code != http.StatusConflict || !strings.Contains(body, "not_durable") {
		t.Fatalf("in-memory wal fetch: %d %s", code, body)
	}
	code, body = get(t, mts.URL+"/api/admin/snapshot/latest")
	if code != http.StatusConflict || !strings.Contains(body, "not_durable") {
		t.Fatalf("in-memory snapshot fetch: %d %s", code, body)
	}
}

func TestAdminSnapshotLatest(t *testing.T) {
	sys, ts := newDurableTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/api/admin/snapshot/latest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Snapshot-Seq"); got != "3" {
		t.Fatalf("X-Snapshot-Seq %q, want 3", got)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadSnapshot(strings.NewReader(string(data))); err != nil {
		t.Fatalf("shipped snapshot does not load: %v", err)
	}
	if restored.LastSeq() != sys.Repo.LastSeq() {
		t.Fatalf("restored seq %d, primary %d", restored.LastSeq(), sys.Repo.LastSeq())
	}
}

// TestReadOnlyModeRejectsWrites walks the route table on a follower:
// every Write route is refused with the read_only envelope naming the
// primary, and once the follower lags past MaxLagSeq every other route
// degrades to 503 replica_lagging except the admin routes.
func TestReadOnlyModeRejectsWrites(t *testing.T) {
	rep := &fakeReplica{synced: true, primary: "http://primary:8080"}
	_, ts := newDurableTestServer(t, Options{Replica: rep, MaxLagSeq: 5})
	for _, rt := range routes {
		if !rt.Write {
			continue
		}
		resp, err := http.Post(ts.URL+rt.Pattern, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("POST %s: status %d, want 403", rt.Pattern, resp.StatusCode)
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Primary string `json:"primary"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("POST %s: non-JSON 403 body %q", rt.Pattern, body)
		}
		if envelope.Error.Code != "read_only" || envelope.Error.Primary != "http://primary:8080" {
			t.Fatalf("POST %s: envelope %+v", rt.Pattern, envelope)
		}
	}
	// Reads still work.
	if code, _ := get(t, ts.URL+"/api/search?q=station"); code != http.StatusOK {
		t.Fatalf("read-only GET /api/search: %d", code)
	}

	rep.seqLag = 9
	for _, rt := range routes {
		if rt.Write {
			continue
		}
		resp, body := request(t, rt.Method, ts.URL+rt.Pattern)
		lagging := resp.StatusCode == http.StatusServiceUnavailable
		if strings.HasPrefix(rt.Pattern, "/api/admin/") {
			if lagging {
				t.Errorf("%s %s on a lagging follower: 503, want admin routes exempt", rt.Method, rt.Pattern)
			}
		} else if !lagging || envelopeCode(body) != "replica_lagging" {
			t.Errorf("%s %s on a lagging follower: %d %s, want 503 replica_lagging", rt.Method, rt.Pattern, resp.StatusCode, body)
		}
	}
}

// fakeReplica is a scriptable ReplicaSource for the gating tests.
type fakeReplica struct {
	seqLag  uint64
	wall    time.Duration
	synced  bool
	primary string
}

func (f *fakeReplica) ReplicaLag() (uint64, time.Duration, bool) {
	return f.seqLag, f.wall, f.synced
}

func (f *fakeReplica) ReplicaStats() any {
	return map[string]any{"seqLag": f.seqLag, "synced": f.synced}
}

func (f *fakeReplica) PrimaryURL() string { return f.primary }

func TestReplicaLagHeaderAndDegradation(t *testing.T) {
	rep := &fakeReplica{seqLag: 2, synced: true}
	_, ts := newDurableTestServer(t, Options{Replica: rep, MaxLagSeq: 5})

	// Within threshold: served, with the lag header.
	resp, err := http.Get(ts.URL + "/api/search?q=station")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lag 2/5: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Replica-Lag-Seq"); got != "2" {
		t.Fatalf("X-Replica-Lag-Seq %q, want 2", got)
	}

	// Beyond threshold: 503 with the structured envelope.
	rep.seqLag = 9
	resp, err = http.Get(ts.URL + "/api/search?q=station")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "replica_lagging") {
		t.Fatalf("lag 9/5: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Never synced: degraded even at seqLag 0.
	rep.seqLag, rep.synced = 0, false
	if code, body := get(t, ts.URL+"/api/search?q=station"); code != http.StatusServiceUnavailable {
		t.Fatalf("unsynced: %d %s", code, body)
	}

	// Admin endpoints stay reachable while degraded.
	var stats struct {
		Replica map[string]any `json:"replica"`
	}
	getJSON(t, ts.URL+"/api/admin/stats", &stats)
	if stats.Replica == nil {
		t.Fatal("stats missing replica block")
	}

	// No MaxLagSeq: header still present, no degradation.
	rep2 := &fakeReplica{seqLag: 1000, synced: false}
	_, ts2 := newDurableTestServer(t, Options{Replica: rep2})
	resp, err = http.Get(ts2.URL + "/api/search?q=station")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Replica-Lag-Seq") != "1000" {
		t.Fatalf("no-threshold follower: %d lag header %q", resp.StatusCode, resp.Header.Get("X-Replica-Lag-Seq"))
	}
}
