package smr

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
)

// The durable repository: a data directory holding the newest snapshot
// (snapshot-<seq>.json) plus the write-ahead log tail (wal-<seq>.seg) of
// every mutation past that snapshot. Open restores the snapshot, replays
// only the tail, and leaves the in-memory journal numbered exactly as the
// durable log, so a cold-started replica's consumers catch up through the
// ordinary incremental Refresh — no full rebuild. Snapshot persists the
// current state and compacts the log prefix it covers.

// ErrNotDurable reports a persistence operation on a repository that was
// built by New rather than opened from a data directory.
var ErrNotDurable = errors.New("smr: repository has no data directory")

// DurableOptions configures Open.
type DurableOptions struct {
	// Fsync selects the WAL sync policy (wal.SyncAlways by default: a
	// mutation that returned success survives an immediate crash).
	Fsync wal.SyncPolicy
	// SegmentBytes overrides the WAL segment rotation threshold (0 keeps
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// AutoSnapshotBytes, when positive, triggers a background Snapshot
	// once this many WAL bytes have accumulated since the last snapshot,
	// bounding replay time without an operator in the loop. The
	// background compaction never removes records a recently seen
	// replication consumer (NoteWALConsumer) still needs.
	AutoSnapshotBytes int64
	// AutoSnapshotAge, when positive, additionally snapshots in the
	// background whenever the newest snapshot is older than this and the
	// log holds records past it.
	AutoSnapshotAge time.Duration
}

// WAL operation kinds.
const (
	walOpPut    = "put"
	walOpDelete = "del"
	walOpTag    = "tag"
)

// WALOp is one durable-log mutation record. Unlike the in-memory
// journal's Change entries it carries the full mutation (text, author,
// timestamps), because replay must reconstruct the repository, not merely
// invalidate derived state. On disk it is encoded by the versioned codec
// in codec.go (v2 binary today, v1 JSON still replayed); the JSON tags
// are the v1 format.
type WALOp struct {
	Op      string    `json:"op"`
	Title   string    `json:"title"`
	Author  string    `json:"author,omitempty"`
	Text    string    `json:"text,omitempty"`
	Comment string    `json:"comment,omitempty"`
	Tag     string    `json:"tag,omitempty"`
	At      time.Time `json:"at"` // revision / tag-creation timestamp
}

// stageMutation encodes one mutation and stages it in the WAL under the
// caller-held mu. The returned commit function waits for the covering
// fsync and must be called after mu is released — that is what lets
// concurrent writers share one sync. Both returns are nil for in-memory
// repositories and during restore replay (the records being replayed are
// already durable).
func (r *Repository) stageMutation(seq uint64, op WALOp) (commit func() error, err error) {
	if r.wal == nil || r.restoring {
		return nil, nil
	}
	data, err := encodeWALOp(op)
	if err != nil {
		return nil, err
	}
	commit, err = r.wal.AppendAsync(seq, data)
	if err != nil {
		r.walAppendErrs.Add(1)
		return nil, fmt.Errorf("smr: journaling %s %s: %w", op.Op, op.Title, err)
	}
	r.walV2Records.Add(1)
	r.walV2Bytes.Add(uint64(len(data)))
	return commit, nil
}

// commitStaged waits for a staged mutation's covering fsync and runs the
// auto-snapshot policy check. Must be called without mu held. A nil
// commit (in-memory repository, restore replay) is a no-op.
func (r *Repository) commitStaged(commit func() error) error {
	if commit == nil {
		return nil
	}
	if err := commit(); err != nil {
		r.walAppendErrs.Add(1)
		return err
	}
	r.maybeAutoSnapshot()
	return nil
}

// Open opens (or initializes) a durable repository in dir: the newest
// snapshot is restored first, then the WAL records past the snapshot's
// sequence number are replayed with their original timestamps. After Open
// the in-memory journal holds an entry for every restored page and tag plus
// the replayed tail, numbered exactly as the durable log — so derived
// consumers (search index, recommender, tagging) catch up incrementally
// from position 0 and new mutations continue the durable numbering.
func Open(dir string, opts DurableOptions) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	r, err := New()
	if err != nil {
		return nil, err
	}
	r.restoring = true
	snapPath, snapSeq, err := newestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if snapPath != "" {
		if err := r.LoadSnapshotFile(snapPath); err != nil {
			return nil, fmt.Errorf("smr: restoring %s: %w", snapPath, err)
		}
		if got := r.journal.LastSeq(); got < snapSeq {
			// Snapshot file predates the embedded-seq format or was
			// renamed; trust the embedded position, fall back to the name.
			r.journal.AdvanceTo(snapSeq)
		} else {
			snapSeq = got
		}
	}
	// Replay the log tail with original timestamps via a swapped clock.
	prevClock := r.Wiki.Clock()
	var replayAt time.Time
	r.Wiki.SetClock(func() time.Time { return replayAt })
	log, err := wal.Open(dir, wal.Options{SegmentBytes: opts.SegmentBytes, Sync: opts.Fsync},
		func(rec wal.Record) error {
			// Count replayed records per format so the stats block reflects
			// the whole retained log, not just this process's appends.
			if walRecordFormat(rec.Data) == walFormatV2 {
				r.walV2Records.Add(1)
				r.walV2Bytes.Add(uint64(len(rec.Data)))
			} else {
				r.walV1Records.Add(1)
				r.walV1Bytes.Add(uint64(len(rec.Data)))
			}
			if rec.Seq <= snapSeq {
				// Pre-snapshot prefix not yet compacted away.
				return nil
			}
			op, err := DecodeWALOp(rec.Data)
			if err != nil {
				return fmt.Errorf("smr: decoding wal record %d: %w", rec.Seq, err)
			}
			// Land the replayed mutation at its original sequence number.
			r.journal.AdvanceTo(rec.Seq - 1)
			replayAt = op.At
			switch op.Op {
			case walOpPut:
				_, err := r.PutPage(op.Title, op.Author, op.Text, op.Comment)
				return err
			case walOpDelete:
				_, err := r.DeletePage(op.Title)
				return err
			case walOpTag:
				return r.addTagAt(op.Title, op.Tag, op.Author, op.At)
			}
			return fmt.Errorf("smr: unknown wal op %q at seq %d", op.Op, rec.Seq)
		})
	r.Wiki.SetClock(prevClock)
	r.restoring = false
	if err != nil {
		return nil, err
	}
	r.wal = log
	r.walDir = dir
	r.snapshotSeq.Store(snapSeq)
	// New mutations must extend the durable numbering.
	r.journal.AdvanceTo(log.LastSeq())
	r.autoSnapBytes = opts.AutoSnapshotBytes
	r.autoSnapAge = opts.AutoSnapshotAge
	r.lastSnapAt.Store(r.Wiki.Now().UnixNano())
	r.lastSnapWALBytes.Store(log.Stats().Bytes)
	if r.autoSnapAge > 0 {
		r.autoSnapStop = make(chan struct{})
		r.autoSnapWG.Add(1)
		go r.autoSnapshotByAge()
	}
	return r, nil
}

// addTagAt replays a tag assignment with its original timestamp.
func (r *Repository) addTagAt(page, tag, author string, created time.Time) error {
	r.mu.Lock()
	commit, err := r.addTagLocked(page, tag, author, created)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.commitStaged(commit)
}

// Close stops the auto-snapshot machinery, waits for any in-flight
// background snapshot, and syncs and closes the write-ahead log.
// In-memory repositories close trivially.
func (r *Repository) Close() error {
	if r.wal == nil {
		return nil
	}
	// closing is flipped under autoSnapMu so no new background snapshot can
	// slip its WaitGroup Add in after the Wait below has started.
	r.autoSnapMu.Lock()
	alreadyClosing := r.closing.Swap(true)
	r.autoSnapMu.Unlock()
	if !alreadyClosing && r.autoSnapStop != nil {
		close(r.autoSnapStop)
	}
	r.autoSnapWG.Wait()
	return r.wal.Close()
}

// maybeAutoSnapshot runs the size-based snapshot policy after a committed
// mutation: once AutoSnapshotBytes of WAL have accumulated since the last
// snapshot, a background Snapshot bounds replay time without an operator
// in the loop. Called without mu held.
func (r *Repository) maybeAutoSnapshot() {
	if r.autoSnapBytes <= 0 || r.closing.Load() {
		return
	}
	st := r.wal.Stats()
	if st.LastSeq <= r.snapshotSeq.Load() {
		return
	}
	if st.Bytes-r.lastSnapWALBytes.Load() < r.autoSnapBytes {
		return
	}
	r.startAutoSnapshot()
}

// startAutoSnapshot launches one background snapshot unless one is already
// in flight or the repository is closing. The background path respects
// replication-consumer leases so it never compacts a live follower's
// resume point away.
func (r *Repository) startAutoSnapshot() {
	if !r.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	r.autoSnapMu.Lock()
	if r.closing.Load() {
		r.autoSnapMu.Unlock()
		r.snapInFlight.Store(false)
		return
	}
	r.autoSnapWG.Add(1)
	r.autoSnapMu.Unlock()
	go func() {
		defer r.autoSnapWG.Done()
		defer r.snapInFlight.Store(false)
		if _, err := r.snapshot(true); err == nil {
			r.autoSnapshots.Add(1)
		}
		// Errors (including a concurrent Close having closed the log) are
		// deliberately swallowed: the policy retries on the next trigger,
		// and explicit Snapshot still reports failures to the operator.
	}()
}

// autoSnapshotByAge is the AutoSnapshotAge ticker loop: whenever the
// newest snapshot is older than the configured age and the log holds
// records past it, take one in the background.
func (r *Repository) autoSnapshotByAge() {
	defer r.autoSnapWG.Done()
	interval := r.autoSnapAge / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.autoSnapStop:
			return
		case <-t.C:
			if r.closing.Load() {
				return
			}
			if r.wal.Stats().LastSeq <= r.snapshotSeq.Load() {
				continue
			}
			age := r.Wiki.Now().Sub(time.Unix(0, r.lastSnapAt.Load()))
			if age < r.autoSnapAge {
				continue
			}
			r.startAutoSnapshot()
		}
	}
}

// walConsumerLease is how long a replication consumer's noted position
// shields the WAL from background compaction. Followers long-poll the feed
// continuously, so a live one renews far inside the lease; a gone one
// stops holding segments back within minutes.
const walConsumerLease = 5 * time.Minute

// NoteWALConsumer records that a replication consumer will next read the
// log from seq (it has applied everything before it). Background auto
// snapshots keep records ≥ seq on disk until the lease expires; explicit
// operator snapshots still compact fully — a follower whose position was
// compacted away re-bootstraps through the documented 410 path.
func (r *Repository) NoteWALConsumer(seq uint64) {
	if r.wal == nil {
		return
	}
	r.consumerMu.Lock()
	defer r.consumerMu.Unlock()
	if r.consumers == nil {
		r.consumers = make(map[uint64]time.Time)
	}
	r.consumers[seq] = r.Wiki.Now().Add(walConsumerLease)
}

// walConsumerFloor returns the smallest next-needed position among live
// consumer leases, expiring stale ones. ok is false when no lease is live.
func (r *Repository) walConsumerFloor() (uint64, bool) {
	r.consumerMu.Lock()
	defer r.consumerMu.Unlock()
	now := r.Wiki.Now()
	var floor uint64
	found := false
	for seq, exp := range r.consumers {
		if exp.Before(now) {
			delete(r.consumers, seq)
			continue
		}
		if !found || seq < floor {
			floor = seq
			found = true
		}
	}
	return floor, found
}

// SnapshotInfo reports what one Snapshot call produced.
type SnapshotInfo struct {
	Seq             uint64 `json:"seq"`             // journal position captured
	Path            string `json:"path"`            // snapshot file written
	SegmentsRemoved int    `json:"segmentsRemoved"` // WAL segments compacted away
}

// Snapshot persists the current repository state and compacts the log: the
// state is captured under one consistent view, written to a temp file,
// atomically renamed to snapshot-<seq>.json, and only then are the WAL
// segments fully covered by it (and any older snapshot files) deleted — a
// crash at any point leaves either the old or the new snapshot intact with
// every record needed to reach the head.
//
// The operator-facing Snapshot compacts the full covered prefix; the
// background auto-snapshot path additionally holds compaction back to the
// oldest position a live replication consumer still needs.
func (r *Repository) Snapshot() (SnapshotInfo, error) {
	return r.snapshot(false)
}

func (r *Repository) snapshot(respectConsumers bool) (SnapshotInfo, error) {
	if r.wal == nil {
		return SnapshotInfo{}, ErrNotDurable
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	// Capture to memory under the read lock so writers are blocked only
	// for the in-memory walk, not the disk write.
	var buf bytes.Buffer
	r.mu.RLock()
	seq, err := r.saveSnapshotLocked(&buf)
	r.mu.RUnlock()
	if err != nil {
		return SnapshotInfo{}, err
	}
	tmp := filepath.Join(r.walDir, "snapshot.tmp")
	if err := writeFileSynced(tmp, buf.Bytes()); err != nil {
		return SnapshotInfo{}, fmt.Errorf("smr: writing snapshot: %w", err)
	}
	final := filepath.Join(r.walDir, snapshotName(seq))
	if err := os.Rename(tmp, final); err != nil {
		return SnapshotInfo{}, fmt.Errorf("smr: publishing snapshot: %w", err)
	}
	syncDir(r.walDir)
	compactTo := seq
	if respectConsumers {
		if floor, ok := r.walConsumerFloor(); ok {
			// floor is the first seq a live consumer still needs; only the
			// prefix strictly before it may go.
			if floor == 0 {
				compactTo = 0
			} else if floor-1 < compactTo {
				compactTo = floor - 1
			}
		}
	}
	removed, err := r.wal.TruncatePrefix(compactTo)
	if err != nil {
		return SnapshotInfo{}, err
	}
	// Older snapshots are superseded; losing this cleanup to a crash is
	// harmless (Open picks the newest).
	if entries, err := os.ReadDir(r.walDir); err == nil {
		for _, e := range entries {
			if s, ok := snapshotSeqFromName(e.Name()); ok && s < seq {
				os.Remove(filepath.Join(r.walDir, e.Name()))
			}
		}
	}
	r.snapshotSeq.Store(seq)
	r.lastSnapAt.Store(r.Wiki.Now().UnixNano())
	r.lastSnapWALBytes.Store(r.wal.Stats().Bytes)
	return SnapshotInfo{Seq: seq, Path: final, SegmentsRemoved: removed}, nil
}

// WALFormatStats counts the records of one payload format seen by this
// process: appended live, or replayed from the retained log at Open.
type WALFormatStats struct {
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
}

// WALStats is the durability snapshot surfaced by System.Stats and the
// admin endpoint.
type WALStats struct {
	Enabled     bool   `json:"enabled"`
	Dir         string `json:"dir,omitempty"`
	LastSeq     uint64 `json:"lastSeq"`
	SnapshotSeq uint64 `json:"snapshotSeq"`
	Segments    int    `json:"segments"`
	Bytes       int64  `json:"bytes"`
	Appends     uint64 `json:"appends"`
	Syncs       uint64 `json:"syncs"`
	TornDropped int    `json:"tornDropped"`
	AppendErrs  uint64 `json:"appendErrs"`

	// Record-format mix (codec.go): v1 JSON vs v2 binary.
	FormatV1 WALFormatStats `json:"formatV1"`
	FormatV2 WALFormatStats `json:"formatV2"`

	// Group-commit effectiveness under -fsync always: GroupCommits shared
	// fsyncs covered GroupedAppends staged records, so FsyncsSaved is the
	// per-record fsyncs the pipeline avoided and MeanBatch the average
	// records acked per shared fsync.
	GroupCommits   uint64  `json:"groupCommits"`
	GroupedAppends uint64  `json:"groupedAppends"`
	FsyncsSaved    uint64  `json:"fsyncsSaved"`
	MeanBatch      float64 `json:"meanBatch"`

	// Background snapshots taken by the auto-snapshot policy.
	AutoSnapshots uint64 `json:"autoSnapshots"`
}

// WALStats reports the durable-journal position and segment counters; the
// zero value (Enabled false) for an in-memory repository.
func (r *Repository) WALStats() WALStats {
	if r.wal == nil {
		return WALStats{}
	}
	st := r.wal.Stats()
	out := WALStats{
		Enabled:     true,
		Dir:         r.walDir,
		LastSeq:     st.LastSeq,
		SnapshotSeq: r.snapshotSeq.Load(),
		Segments:    st.Segments,
		Bytes:       st.Bytes,
		Appends:     st.Appends,
		Syncs:       st.Syncs,
		TornDropped: st.TornDropped,
		AppendErrs:  r.walAppendErrs.Load(),
		FormatV1: WALFormatStats{
			Records: r.walV1Records.Load(),
			Bytes:   r.walV1Bytes.Load(),
		},
		FormatV2: WALFormatStats{
			Records: r.walV2Records.Load(),
			Bytes:   r.walV2Bytes.Load(),
		},
		GroupCommits:   st.GroupCommits,
		GroupedAppends: st.GroupedAppends,
		AutoSnapshots:  r.autoSnapshots.Load(),
	}
	if out.GroupCommits > 0 {
		out.FsyncsSaved = out.GroupedAppends - out.GroupCommits
		out.MeanBatch = float64(out.GroupedAppends) / float64(out.GroupCommits)
	}
	return out
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snapshot-%016x.json", seq)
}

func snapshotSeqFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".json")
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// newestSnapshot finds the highest-sequence snapshot file in dir.
func newestSnapshot(dir string) (path string, seq uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, fmt.Errorf("smr: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if _, ok := snapshotSeqFromName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", 0, nil
	}
	sort.Strings(names)
	best := names[len(names)-1]
	seq, _ = snapshotSeqFromName(best)
	return filepath.Join(dir, best), seq, nil
}

func writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs directory metadata, best-effort.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
