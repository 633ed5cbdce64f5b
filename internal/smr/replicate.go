package smr

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/wal"
)

// Replication primitives: a primary exposes its durable log as a stream
// (WALRecords + WALWait feed the HTTP wal endpoint, SnapshotReader feeds
// the bootstrap endpoint) and a follower replays that stream through
// ApplyReplicated. A follower is itself a durable repository — every
// applied record is re-logged into its local WAL at the identical primary
// sequence number, so a crashed follower restarts from its own disk and
// resumes the stream at LastSeq()+1 instead of re-bootstrapping.

// SnapshotFileName is the on-disk name of a snapshot at seq — exported so
// a bootstrapping follower can install a fetched snapshot under the exact
// name Open discovers.
func SnapshotFileName(seq uint64) string { return snapshotName(seq) }

// WALRecords returns the durable-log records after fromSeq, bounded by
// maxRecords and maxBytes (payload bytes; zero means unbounded), plus the
// current head sequence. It returns wal.ErrCompacted when the requested
// range has been compacted into a snapshot — the caller must re-bootstrap.
func (r *Repository) WALRecords(fromSeq uint64, maxRecords int, maxBytes int64) ([]wal.Record, uint64, error) {
	if r.wal == nil {
		return nil, 0, ErrNotDurable
	}
	return r.wal.ReadFrom(fromSeq, maxRecords, maxBytes)
}

// WALWait blocks until the durable log holds records past seq, the timeout
// elapses, cancel is closed, or the log is closed. It reports whether
// records past seq exist; false for in-memory repositories.
func (r *Repository) WALWait(seq uint64, timeout time.Duration, cancel <-chan struct{}) bool {
	if r.wal == nil {
		return false
	}
	return r.wal.WaitFor(seq, timeout, cancel)
}

// SnapshotReader opens the newest on-disk snapshot for streaming to a
// bootstrapping follower, creating one first if the directory has none.
// The returned seq is the journal position the snapshot captures; the
// caller owns the ReadCloser. Opening races benignly with a concurrent
// Snapshot superseding the file (the open file survives the unlink on
// POSIX; a not-exist between list and open is retried).
func (r *Repository) SnapshotReader() (uint64, io.ReadCloser, error) {
	if r.wal == nil {
		return 0, nil, ErrNotDurable
	}
	for attempt := 0; attempt < 3; attempt++ {
		path, seq, err := newestSnapshot(r.walDir)
		if err != nil {
			return 0, nil, err
		}
		if path == "" {
			info, err := r.Snapshot()
			if err != nil {
				return 0, nil, err
			}
			path, seq = info.Path, info.Seq
		}
		f, err := os.Open(path)
		if err == nil {
			return seq, f, nil
		}
		if !os.IsNotExist(err) {
			return 0, nil, fmt.Errorf("smr: opening snapshot: %w", err)
		}
	}
	return 0, nil, fmt.Errorf("smr: snapshot kept vanishing before it could be opened")
}

// ApplyReplicated applies one primary WAL record to a follower repository.
// Records at or below the follower's journal position are skipped (the
// stream resumed behind the last applied seq — idempotent); a record that
// would leave a gap is an error, as is any apply that contradicts local
// state (e.g. a delete for a page the follower never had), since both mean
// the follower has diverged and must re-bootstrap.
//
// The mutation is applied with the primary's original timestamp via a
// swapped clock and lands in the follower's journal — and local WAL — at
// exactly rec.Seq. ApplyReplicated is not safe to call concurrently with
// itself or with local mutations; a follower has a single apply loop and
// takes no local writes.
func (r *Repository) ApplyReplicated(rec wal.Record) error {
	last := r.journal.LastSeq()
	if rec.Seq <= last {
		return nil
	}
	if rec.Seq != last+1 {
		return fmt.Errorf("smr: replication gap: have seq %d, next record is %d", last, rec.Seq)
	}
	op, err := DecodeWALOp(rec.Data)
	if err != nil {
		return fmt.Errorf("smr: decoding replicated record %d: %w", rec.Seq, err)
	}
	// Stamp the mutation with the primary's timestamp. The swap is visible
	// to concurrent readers of Now for the duration of one apply; followers
	// take no local writes, so no unrelated mutation can pick it up.
	prevClock := r.Wiki.Clock()
	r.Wiki.SetClock(func() time.Time { return op.At })
	defer r.Wiki.SetClock(prevClock)
	switch op.Op {
	case walOpPut:
		_, err := r.PutPage(op.Title, op.Author, op.Text, op.Comment)
		return err
	case walOpDelete:
		existed, err := r.DeletePage(op.Title)
		if err == nil && !existed {
			err = fmt.Errorf("smr: replicated delete of unknown page %q at seq %d (follower diverged)", op.Title, rec.Seq)
		}
		return err
	case walOpTag:
		return r.addTagAt(op.Title, op.Tag, op.Author, op.At)
	}
	return fmt.Errorf("smr: unknown replicated op %q at seq %d", op.Op, rec.Seq)
}
