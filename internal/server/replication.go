package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/smr"
	"repro/internal/wal"
)

// Replication surface: a durable primary ships its write-ahead log to
// followers through two admin endpoints — GET /api/admin/snapshot/latest
// for bootstrap and GET /api/admin/wal for the (long-polling) record
// stream — while a follower serves the full read API in read-only mode,
// stamps responses with its replication lag, and degrades to 503 instead
// of serving arbitrarily stale reads.

// ReplicaSource reports a follower's replication position and names its
// primary; a server given one is a read-only follower. Implemented by
// replica.Follower; the server package stays independent of the replica
// package (which imports the root package, which the server serves).
type ReplicaSource interface {
	// ReplicaLag returns the distance behind the primary in sequence
	// numbers, the wall-clock time since the follower was last known to be
	// at the primary's head, and whether it has ever reached the head.
	ReplicaLag() (seqLag uint64, wall time.Duration, synced bool)
	// ReplicaStats returns the JSON-serializable stats block surfaced by
	// /api/admin/stats.
	ReplicaStats() any
	// PrimaryURL names the primary, where the read-only envelope sends
	// clients' writes.
	PrimaryURL() string
}

// Bounds for the wal feed endpoint: larger max and wait values are cut
// down to them.
const (
	walMaxBatch = 4096
	walMaxBytes = 4 << 20 // payload bytes per response
	walMaxWait  = 60 * time.Second
)

// gateReplica enforces follower semantics before a route's handler runs:
// a write route is rejected with a 403 pointing at the primary, read
// responses carry the X-Replica-Lag-Seq header, and — when a max lag is
// configured — reads on a follower lagging past it (or never synced)
// return 503 rather than arbitrarily stale data. Admin routes stay
// reachable throughout so lag is observable on an unhealthy follower.
// Reports whether the request was terminated. A server without a Replica
// is a primary and passes every request through.
func (s *Server) gateReplica(w http.ResponseWriter, write, admin bool) bool {
	if s.opts.Replica == nil {
		return false
	}
	if write {
		writeEnvelope(w, http.StatusForbidden, v1Error{
			Code:    "read_only",
			Message: "this server is a read replica; send writes to the primary",
			Primary: s.opts.Replica.PrimaryURL(),
		})
		return true
	}
	if admin {
		return false
	}
	seqLag, _, synced := s.opts.Replica.ReplicaLag()
	w.Header().Set("X-Replica-Lag-Seq", strconv.FormatUint(seqLag, 10))
	if s.opts.MaxLagSeq > 0 && (!synced || seqLag > s.opts.MaxLagSeq) {
		msg := "replica is lagging beyond the configured threshold; retry or query the primary"
		if !synced {
			msg = "replica has not yet caught up with the primary; retry shortly"
		}
		w.Header().Set("Retry-After", "1")
		writeV1Error(w, http.StatusServiceUnavailable, "replica_lagging", "", msg)
		return true
	}
	return false
}

// walFeedRecord and walFeedResponse are the wire shape of the wal stream.
// Data carries the WAL payload verbatim; since format v2 the payloads are
// binary (smr.DecodeWALOp decodes either version), so they ship as a JSON
// base64 string rather than embedded JSON.
type walFeedRecord struct {
	Seq  uint64 `json:"seq"`
	Data []byte `json:"data"`
}

type walFeedResponse struct {
	From    uint64          `json:"from"`
	LastSeq uint64          `json:"lastSeq"`
	Records []walFeedRecord `json:"records"`
}

// handleAdminWAL serves GET /api/admin/wal?from=<seq>&max=<n>&wait=<dur>:
// the durable-log records after from, up to max of them. With wait > 0 and
// nothing new, the request parks until a record arrives, the wait elapses,
// or the client disconnects (long-poll). 409 when the server runs
// in-memory, 410 when the requested range has been compacted into a
// snapshot (the follower must re-bootstrap).
func (s *Server) handleAdminWAL(w http.ResponseWriter, r *http.Request, p params) {
	from, max, wait := uint64(p.int("from")), min(p.int("max"), walMaxBatch), min(p.dur("wait"), walMaxWait)
	// Lease the requested position against background compaction: an
	// auto-snapshot must not delete the records this follower is about to
	// read (explicit operator snapshots still compact fully).
	s.sys.Repo.NoteWALConsumer(from + 1)
	if wait > 0 {
		s.sys.Repo.WALWait(from, wait, r.Context().Done())
		if r.Context().Err() != nil {
			return // client went away while we were parked
		}
	}
	recs, last, err := s.sys.Repo.WALRecords(from, max, walMaxBytes)
	switch {
	case errors.Is(err, smr.ErrNotDurable):
		writeV1Error(w, http.StatusConflict, "not_durable", "",
			"this server runs in-memory and has no write-ahead log to ship")
		return
	case errors.Is(err, wal.ErrCompacted):
		writeV1Error(w, http.StatusGone, "wal_compacted", "",
			"the requested records have been compacted into a snapshot; re-bootstrap from /api/admin/snapshot/latest")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "wal: %v", err)
		return
	}
	out := walFeedResponse{From: from, LastSeq: last, Records: make([]walFeedRecord, 0, len(recs))}
	for _, rec := range recs {
		out.Records = append(out.Records, walFeedRecord{Seq: rec.Seq, Data: rec.Data})
	}
	writeJSON(w, out)
}

// handleAdminSnapshotLatest serves GET /api/admin/snapshot/latest: the
// newest on-disk snapshot (created on the spot if the directory has none),
// with its journal position in the X-Snapshot-Seq header — the bootstrap
// image a follower restores before tailing the wal endpoint. 409 when the
// server runs in-memory.
func (s *Server) handleAdminSnapshotLatest(w http.ResponseWriter, r *http.Request, _ params) {
	seq, rc, err := s.sys.Repo.SnapshotReader()
	if err != nil {
		if errors.Is(err, smr.ErrNotDurable) {
			writeV1Error(w, http.StatusConflict, "not_durable", "",
				"this server runs in-memory and has no snapshot to ship")
			return
		}
		httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Snapshot-Seq", strconv.FormatUint(seq, 10))
	io.Copy(w, rc)
}

// replicaStatsBlock returns the replication section of /api/admin/stats,
// nil when this server is not a follower.
func (s *Server) replicaStatsBlock() any {
	if s.opts.Replica == nil {
		return nil
	}
	return s.opts.Replica.ReplicaStats()
}
