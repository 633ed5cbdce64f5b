package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sensormeta "repro"
	"repro/internal/smr"
	"repro/internal/wal"
	"repro/internal/workload"
)

func TestAdminSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	sys, err := sensormeta.Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 2, Deployments: 4, Sensors: 12, Seed: 5, TagsPerSensor: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d: %s", resp.StatusCode, body)
	}
	var info smr.SnapshotInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Seq == 0 || info.Path == "" {
		t.Fatalf("snapshot info = %+v", info)
	}
	// The admin stats now report the WAL position and snapshot seq.
	resp, err = http.Get(ts.URL + "/api/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Refresh struct {
			WAL smr.WALStats `json:"wal"`
		} `json:"refresh"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Refresh.WAL.Enabled || stats.Refresh.WAL.SnapshotSeq != info.Seq {
		t.Fatalf("stats WAL = %+v, want snapshotSeq %d", stats.Refresh.WAL, info.Seq)
	}
}

func TestAdminSnapshotRequiresDataDir(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409 for an in-memory system (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "data directory") {
		t.Fatalf("unhelpful error body: %s", body)
	}
}
