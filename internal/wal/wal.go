// Package wal implements the durable change journal of the repository: an
// append-only, segmented, CRC-checksummed log of opaque records keyed by a
// strictly increasing sequence number.
//
// The log is the persistence half of the incremental-maintenance story: the
// in-memory smr.Journal feeds live consumers, the WAL makes the same change
// stream survive restarts, so a cold-started replica restores the newest
// snapshot and replays only the log tail instead of rebuilding from scratch.
//
// # On-disk format
//
// A log is a directory of segment files named wal-<firstseq>.seg (sequence
// number in zero-padded hex, so lexical order is replay order). Every
// segment starts with an 8-byte magic header, followed by records:
//
//	[4B payload length][8B seq][payload][4B CRC32-C]
//
// The checksum covers the length, the sequence number and the payload, so a
// record is accepted only when every byte of it survived. Appends go to the
// newest segment; once it exceeds the configured size the segment is synced
// and a new one is started.
//
// # Crash recovery
//
// A crash can tear only the tail of the newest segment (writes are
// sequential, older segments are never touched). Open scans every segment
// in order and stops at the first record whose length, checksum or
// monotonicity check fails: when that happens in the newest segment the
// torn tail is truncated away and appending resumes at the last good
// offset; anywhere else it is reported as corruption. A record written
// under SyncAlways is therefore never lost, and a torn record is never
// surfaced.
//
// # Group commit
//
// Under SyncAlways an append is two phases: the record's bytes are staged
// into the active segment under the log mutex (AppendAsync), then the
// caller waits — outside any lock — for an fsync that covers its sequence
// number. The first waiter with no flush in flight becomes the
// leader and issues one fsync for every record staged so far, so N
// concurrent writers cost one fsync instead of N. An append is
// acknowledged only after its covering fsync returned, so the durability
// contract is unchanged: a record whose Append (or commit) returned nil
// survives an immediate crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncAlways fsyncs the segment after every append: a record reported
	// written survives an immediate crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS; the segment is still synced on
	// rotation and on Close. A crash may lose the unsynced tail — never a
	// previously synced prefix, and never a torn record (the CRC drops it).
	SyncNever
)

// String renders the policy in the form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "none"
	}
	return "always"
}

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "none", "never", "os":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always or none)", s)
}

// Options configures a log.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size. Zero selects the 8 MiB default.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
const DefaultSegmentBytes = 8 << 20

// maxRecordBytes bounds a single record payload; a decoded length beyond it
// is treated as a torn/corrupt record rather than an allocation request.
const maxRecordBytes = 64 << 20

var magic = [8]byte{'S', 'M', 'R', 'W', 'A', 'L', '1', '\n'}

const headerLen = 12 // 4B length + 8B seq
const trailerLen = 4 // CRC32-C

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log entry.
type Record struct {
	Seq  uint64
	Data []byte
}

type segment struct {
	path     string
	firstSeq uint64 // from the file name; advisory until a record confirms it
	lastSeq  uint64 // highest record seq in the segment (0 when empty)
	size     int64
}

// Stats is an observability snapshot of the log.
type Stats struct {
	LastSeq      uint64 `json:"lastSeq"`
	Segments     int    `json:"segments"`
	Bytes        int64  `json:"bytes"`
	Appends      uint64 `json:"appends"`
	Syncs        uint64 `json:"syncs"`
	TornDropped  int    `json:"tornDropped"`  // torn tail records discarded at Open
	SegmentBytes int64  `json:"segmentBytes"` // rotation threshold
	// Group-commit counters: GroupCommits is the number of shared fsyncs
	// the commit pipeline issued, GroupedAppends the number of appends
	// those fsyncs acknowledged. GroupedAppends − GroupCommits is the
	// number of fsyncs group commit saved over the per-record baseline.
	GroupCommits   uint64 `json:"groupCommits"`
	GroupedAppends uint64 `json:"groupedAppends"`
}

// Log is an open write-ahead log. It is safe for concurrent use, though the
// repository serializes appends anyway (sequence numbers must be handed in
// strictly increasing).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active (newest) segment
	segments []segment
	lastSeq  uint64
	appends  uint64
	syncs    uint64
	torn     int
	closed   bool
	// failed latches after a partial write that could not be clawed back
	// (appending past torn bytes would let the next Open silently drop
	// every later record as part of the "tail") or after a failed fsync
	// (syncErr): either way the log fail-stops.
	failed bool
	// syncErr is the first failed fsync of the active segment. After EIO
	// the kernel may already have dropped the dirty pages, so a later
	// fsync of the same handle can succeed without the records reaching
	// disk (the fsyncgate bug class); every commit waiter not yet covered
	// gets this error instead.
	syncErr error
	// sync fsyncs a segment file: (*os.File).Sync, replaced by tests to
	// inject failures.
	sync func(*os.File) error
	// watch is closed (and replaced) on every successful append, waking
	// long-poll readers blocked in WaitFor. Lazily allocated.
	watch chan struct{}

	// Commit pipeline (SyncAlways): appends stage their bytes under mu and
	// then wait for a covering fsync outside it, so concurrent writers
	// share one sync instead of queueing one each.
	flushedSeq     uint64        // highest seq covered by an fsync; guarded by mu
	flushing       bool          // a commit leader is fsyncing outside mu; guarded by mu
	flushWait      chan struct{} // closed+replaced when a flush round ends; guarded by mu
	unflushed      uint64        // appends staged since the last covering fsync; guarded by mu
	groupCommits   uint64        // shared fsyncs issued by the pipeline; guarded by mu
	groupedAppends uint64        // appends acknowledged by those fsyncs; guarded by mu
}

// ErrCompacted reports a ReadFrom position whose successor records have
// been removed by TruncatePrefix: the caller can no longer catch up from
// the log alone and must re-bootstrap from a snapshot.
var ErrCompacted = errors.New("wal: requested records have been compacted away")

// Open opens (or creates) the log in dir and replays every intact record
// through fn in sequence order. A torn tail in the newest segment is
// truncated away; corruption anywhere else is an error. fn returning an
// error aborts the open.
func Open(dir string, opts Options, fn func(Record) error) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, sync: (*os.File).Sync}
	for i, name := range names {
		seg := segment{path: filepath.Join(dir, name), firstSeq: seqFromName(name)}
		last := i == len(names)-1
		if err := l.replaySegment(&seg, last, fn); err != nil {
			return nil, err
		}
		l.segments = append(l.segments, seg)
	}
	return l, nil
}

// segmentNames lists the segment files of dir in replay (lexical) order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func seqFromName(name string) uint64 {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0
	}
	return n
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

// replaySegment reads one segment, feeding intact records to fn. For the
// newest segment a torn tail is truncated; for older ones it is corruption.
func (l *Log) replaySegment(seg *segment, newest bool, fn func(Record) error) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	good := int64(0)
	torn := false
	if len(data) >= len(magic) && [8]byte(data[:len(magic)]) == magic {
		good = int64(len(magic))
		off := len(magic)
		for off < len(data) {
			rec, n, ok := decodeRecord(data[off:])
			if !ok || rec.Seq <= l.lastSeq {
				torn = true
				break
			}
			if err := fn(rec); err != nil {
				return err
			}
			l.lastSeq = rec.Seq
			if seg.lastSeq == 0 {
				seg.firstSeq = rec.Seq
			}
			seg.lastSeq = rec.Seq
			off += n
			good = int64(off)
		}
		if off > len(data) { // cannot happen, decodeRecord bounds n
			torn = true
		}
	} else if len(data) > 0 || newest {
		// Header missing or torn. An empty newest segment is a crash
		// between create and header write — recoverable; anything else is
		// corruption.
		torn = true
	}
	if torn {
		if !newest {
			return fmt.Errorf("wal: corrupt record inside non-final segment %s", seg.path)
		}
		l.torn++
		if err := os.Truncate(seg.path, good); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
		}
	}
	seg.size = good
	return nil
}

// decodeRecord parses one record from b, reporting its total encoded size.
// ok is false when the bytes do not form an intact record (torn tail).
func decodeRecord(b []byte) (rec Record, n int, ok bool) {
	if len(b) < headerLen+trailerLen {
		return rec, 0, false
	}
	length := binary.LittleEndian.Uint32(b)
	if length > maxRecordBytes {
		return rec, 0, false
	}
	total := headerLen + int(length) + trailerLen
	if len(b) < total {
		return rec, 0, false
	}
	sum := binary.LittleEndian.Uint32(b[headerLen+int(length):])
	if crc32.Checksum(b[:headerLen+int(length)], crcTable) != sum {
		return rec, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(b[4:])
	rec.Data = append([]byte(nil), b[headerLen:headerLen+int(length)]...)
	return rec, total, true
}

func encodeRecord(seq uint64, data []byte) []byte {
	buf := make([]byte, headerLen+len(data)+trailerLen)
	binary.LittleEndian.PutUint32(buf, uint32(len(data)))
	binary.LittleEndian.PutUint64(buf[4:], seq)
	copy(buf[headerLen:], data)
	sum := crc32.Checksum(buf[:headerLen+len(data)], crcTable)
	binary.LittleEndian.PutUint32(buf[headerLen+len(data):], sum)
	return buf
}

// Append writes one record. seq must be strictly greater than every
// previously appended or replayed sequence number. Under SyncAlways the
// record is fsynced (as part of a group commit) before Append returns.
func (l *Log) Append(seq uint64, data []byte) error {
	commit, err := l.AppendAsync(seq, data)
	if err != nil {
		return err
	}
	return commit()
}

// AppendAsync stages one record: the bytes are written to the active
// segment before it returns, but under SyncAlways the record is durable
// only once the returned commit function has returned nil. Callers that
// hold a coarser lock around AppendAsync should release it before calling
// commit — that is what lets concurrent writers share one fsync.
func (l *Log) AppendAsync(seq uint64, data []byte) (commit func() error, err error) {
	l.mu.Lock()
	err = l.appendLocked(seq, data)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return func() error { return l.commitWait(seq) }, nil
}

// appendLocked stages one record into the active segment. Caller holds mu.
func (l *Log) appendLocked(seq uint64, data []byte) error {
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	if l.failed {
		return fmt.Errorf("wal: log disabled after an unrecoverable write error")
	}
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: non-monotonic seq %d (last %d)", seq, l.lastSeq)
	}
	if len(data) > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(data), maxRecordBytes)
	}
	if err := l.ensureSegmentLocked(seq); err != nil {
		return err
	}
	buf := encodeRecord(seq, data)
	seg := &l.segments[len(l.segments)-1]
	if _, err := l.f.Write(buf); err != nil {
		// Claw the partial record back: if torn bytes stayed mid-segment,
		// a later successful append would land after them and the next
		// Open would silently drop it as part of the torn tail. When the
		// claw-back itself fails the log fail-stops instead.
		if terr := l.f.Truncate(seg.size); terr != nil {
			l.failed = true
		} else if _, serr := l.f.Seek(seg.size, 0); serr != nil {
			l.failed = true
		}
		return fmt.Errorf("wal: %w", err)
	}
	seg.size += int64(len(buf))
	if seg.lastSeq == 0 {
		seg.firstSeq = seq
	}
	seg.lastSeq = seq
	l.lastSeq = seq
	l.appends++
	l.unflushed++
	if l.opts.Sync != SyncAlways {
		// No covering fsync is coming: feed readers wake on the write.
		l.wakeLocked()
	}
	return nil
}

// commitWait blocks until an fsync covers seq. The first waiter to find no
// flush in flight becomes the leader: it captures the current head, syncs
// the active segment outside mu, and acknowledges every append the sync
// covered — the group commit. Followers park on the round's channel and
// re-check; a round that leaves them uncovered makes one of them the next
// leader. A failed fsync latches the log (latchSyncLocked), so no later
// round can acknowledge the records it covered. Under SyncNever it returns
// immediately.
func (l *Log) commitWait(seq uint64) error {
	if l.opts.Sync != SyncAlways {
		return nil
	}
	l.mu.Lock()
	for {
		if l.flushedSeq >= seq {
			l.mu.Unlock()
			return nil
		}
		if l.syncErr != nil {
			l.mu.Unlock()
			return l.syncErr
		}
		if l.closed {
			// Close syncs the active segment and advances flushedSeq, so
			// landing here means the close-time sync failed or the close
			// raced the stage: the record cannot be confirmed durable.
			l.mu.Unlock()
			return fmt.Errorf("wal: log closed before seq %d was committed", seq)
		}
		if !l.flushing {
			l.flushing = true
			covered := l.lastSeq
			staged := l.unflushed
			l.unflushed = 0
			f := l.f
			l.mu.Unlock()
			err := l.sync(f)
			l.mu.Lock()
			l.flushing = false
			if err == nil {
				l.syncs++
				l.groupCommits++
				l.groupedAppends += staged
				if covered > l.flushedSeq {
					l.flushedSeq = covered
				}
				l.wakeLocked() // feed readers: the records are durable now
			}
			l.flushRoundDoneLocked()
			if err != nil {
				if l.flushedSeq >= covered {
					// The handle went stale under us (rotation or Close
					// synced and closed the segment while we held it);
					// the records are durable through that path.
					continue
				}
				err = l.latchSyncLocked(err)
				l.mu.Unlock()
				return err
			}
			continue
		}
		if l.flushWait == nil {
			l.flushWait = make(chan struct{})
		}
		ch := l.flushWait
		l.mu.Unlock()
		<-ch
		l.mu.Lock()
	}
}

// latchSyncLocked records a failed fsync of the active segment: the log
// refuses further appends, and every commit waiter not yet covered by an
// earlier fsync is woken to return the error. Caller holds mu.
func (l *Log) latchSyncLocked(err error) error {
	if l.syncErr == nil {
		l.syncErr = fmt.Errorf("wal: %w", err)
	}
	l.failed = true
	l.flushRoundDoneLocked()
	return l.syncErr
}

// flushRoundDoneLocked wakes every commitWait follower parked on the
// current flush round. Caller holds mu.
func (l *Log) flushRoundDoneLocked() {
	if l.flushWait != nil {
		close(l.flushWait)
		l.flushWait = nil
	}
}

// wakeLocked wakes every WaitFor blocked on new records. Caller holds mu.
func (l *Log) wakeLocked() {
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// WaitFor blocks until the log holds a record with Seq > seq, the timeout
// elapses, or cancel fires; it reports whether new records are available.
// This is the long-poll primitive behind the replication feed: a follower
// caught up to the head parks here instead of busy-polling.
func (l *Log) WaitFor(seq uint64, timeout time.Duration, cancel <-chan struct{}) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		if l.lastSeq > seq {
			l.mu.Unlock()
			return true
		}
		if l.closed {
			l.mu.Unlock()
			return false
		}
		if l.watch == nil {
			l.watch = make(chan struct{})
		}
		ch := l.watch
		l.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return false
		case <-cancel:
			return false
		}
	}
}

// ReadFrom returns intact records with Seq > fromSeq in sequence order —
// the seq-ranged iteration a replication feed serves. maxRecords and
// maxBytes (payload bytes) bound one batch; zero means unbounded. The
// second return is the log's current last sequence number, so callers can
// report how far behind fromSeq is even when the batch was truncated.
//
// Segment files are append-only and every record is CRC-framed, so reading
// runs concurrently with appends: the segment list and sizes are captured
// under the lock, then file contents up to those sizes are decoded without
// blocking writers. ErrCompacted reports that TruncatePrefix has removed
// record fromSeq+1 — the caller must re-bootstrap from a snapshot.
func (l *Log) ReadFrom(fromSeq uint64, maxRecords int, maxBytes int64) ([]Record, uint64, error) {
	l.mu.Lock()
	last := l.lastSeq
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	if fromSeq >= last {
		return nil, last, nil
	}
	oldest := uint64(0)
	for _, seg := range segs {
		if seg.lastSeq != 0 {
			oldest = seg.firstSeq
			break
		}
	}
	if oldest == 0 || oldest > fromSeq+1 {
		return nil, last, fmt.Errorf("%w (want seq %d, oldest retained %d)", ErrCompacted, fromSeq+1, oldest)
	}
	var out []Record
	var bytes int64
	for _, seg := range segs {
		if seg.lastSeq == 0 || seg.lastSeq <= fromSeq {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// Compacted away between the capture and the read.
				return nil, last, fmt.Errorf("%w (segment %s removed)", ErrCompacted, seg.path)
			}
			return nil, last, fmt.Errorf("wal: %w", err)
		}
		if int64(len(data)) > seg.size {
			// Appends landed after the capture; everything past the
			// captured size belongs to a later batch.
			data = data[:seg.size]
		}
		if len(data) < len(magic) || [8]byte(data[:len(magic)]) != magic {
			return nil, last, fmt.Errorf("wal: segment %s lost its header", seg.path)
		}
		off := len(magic)
		for off < len(data) {
			rec, n, ok := decodeRecord(data[off:])
			if !ok {
				return nil, last, fmt.Errorf("wal: corrupt record in %s at offset %d", seg.path, off)
			}
			off += n
			if rec.Seq <= fromSeq {
				continue
			}
			out = append(out, rec)
			bytes += int64(len(rec.Data))
			if (maxRecords > 0 && len(out) >= maxRecords) || (maxBytes > 0 && bytes >= maxBytes) {
				return out, last, nil
			}
		}
	}
	return out, last, nil
}

// ensureSegmentLocked opens the active segment, rotating when it is over
// the size threshold. nextSeq names a freshly created segment.
func (l *Log) ensureSegmentLocked(nextSeq uint64) error {
	if l.f != nil && l.segments[len(l.segments)-1].size >= l.opts.SegmentBytes {
		if err := l.sync(l.f); err != nil {
			return l.latchSyncLocked(err)
		}
		l.syncs++
		// Everything written so far lives in now-synced segments: commit
		// waiters parked on the outgoing segment are covered by this sync.
		l.flushedSeq = l.lastSeq
		l.unflushed = 0
		l.flushRoundDoneLocked()
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	if l.f == nil && len(l.segments) > 0 && l.segments[len(l.segments)-1].size < l.opts.SegmentBytes {
		// Reopen the replayed newest segment for appending.
		seg := &l.segments[len(l.segments)-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(seg.size, 0); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if seg.size == 0 {
			// Crash landed between create and header write: restore it.
			if _, err := f.Write(magic[:]); err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			}
			seg.size = int64(len(magic))
		}
		l.f = f
		return nil
	}
	if l.f == nil {
		path := filepath.Join(l.dir, segmentName(nextSeq))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Write(magic[:]); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.segments = append(l.segments, segment{path: path, firstSeq: nextSeq, size: int64(len(magic))})
		l.f = f
		l.syncDir()
	}
	return nil
}

// syncDir makes directory metadata (new/removed segment files) durable.
// Best-effort: some filesystems reject directory fsync.
func (l *Log) syncDir() {
	if l.opts.Sync != SyncAlways {
		return
	}
	if d, err := os.Open(l.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// TruncatePrefix deletes every segment whose records all have Seq <= seq —
// the compaction step after a successful snapshot at seq. The active
// segment is never deleted. It reports how many segments were removed.
func (l *Log) TruncatePrefix(seq uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segments[:0]
	for i := range l.segments {
		seg := l.segments[i]
		active := l.f != nil && i == len(l.segments)-1
		// An empty segment (no records) sorts by its advisory firstSeq.
		disposable := seg.lastSeq != 0 && seg.lastSeq <= seq
		if disposable && !active {
			if err := os.Remove(seg.path); err != nil {
				return removed, fmt.Errorf("wal: %w", err)
			}
			removed++
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	if removed > 0 {
		l.syncDir()
	}
	return removed, nil
}

// LastSeq returns the highest sequence number in the log.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats returns an observability snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:        l.lastSeq,
		Segments:       len(l.segments),
		Appends:        l.appends,
		Syncs:          l.syncs,
		TornDropped:    l.torn,
		SegmentBytes:   l.opts.SegmentBytes,
		GroupCommits:   l.groupCommits,
		GroupedAppends: l.groupedAppends,
	}
	for _, seg := range l.segments {
		st.Bytes += seg.size
	}
	return st
}

// Close syncs and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.wakeLocked() // blocked WaitFor callers observe the close
	if l.f == nil {
		l.flushRoundDoneLocked() // commit waiters observe the close too
		return nil
	}
	if err := l.sync(l.f); err != nil {
		l.f.Close()
		l.flushRoundDoneLocked()
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.flushedSeq = l.lastSeq
	l.unflushed = 0
	l.flushRoundDoneLocked()
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
