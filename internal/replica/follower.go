package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	sensormeta "repro"
	"repro/internal/smr"
	"repro/internal/wal"
)

// Sentinel errors a supervising process can branch on.
var (
	// ErrPrimaryCompacted: the primary's WAL no longer holds the records
	// after our position — it compacted past us while we were away. Open
	// recovers by wiping local state and re-bootstrapping from the latest
	// snapshot; when it surfaces from Run the process should restart the
	// follower (which lands in that same Open path).
	ErrPrimaryCompacted = errors.New("replica: primary has compacted past the follower's position")
	// ErrPrimaryNotDurable: the primary runs in-memory (no WAL) and cannot
	// feed a replica. Not retryable.
	ErrPrimaryNotDurable = errors.New("replica: primary has no write-ahead log to ship")
)

// Config configures a Follower.
type Config struct {
	// PrimaryURL is the primary server's base URL (e.g. http://host:8080).
	PrimaryURL string
	// Dir is the follower's local data directory: the bootstrap snapshot
	// lands here and every applied record is re-logged here, so a restart
	// recovers locally and resumes the stream from its last applied seq.
	Dir string
	// Durable configures the local WAL (fsync policy, segment size).
	Durable smr.DurableOptions
	// HTTP performs the requests; per-request timeouts are context-plumbed
	// on top. Defaults to a plain http.Client. Tests install a
	// faultnet-wrapped transport here.
	HTTP *http.Client
	// Backoff is the reconnect schedule template (zero value = defaults).
	Backoff Backoff
	// PollWait is the long-poll duration asked of the wal endpoint
	// (default 20s; the server caps it).
	PollWait time.Duration
	// FetchTimeout bounds each request beyond its long-poll wait
	// (default 10s).
	FetchTimeout time.Duration
	// BatchMax caps records per fetch (default 1024).
	BatchMax int
	// Clock supplies wall time for lag accounting (ReplicaLag,
	// ReplicaStats). Defaults to time.Now; tests inject a fake clock so
	// lag assertions are deterministic.
	Clock func() time.Time
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	cfg.PrimaryURL = strings.TrimRight(cfg.PrimaryURL, "/")
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 20 * time.Second
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 10 * time.Second
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Clock == nil {
		//smrlint:ignore replayclock the one place real wall time enters the package; everything downstream reads cfg.Clock
		cfg.Clock = time.Now
	}
	return cfg
}

// Follower is a read replica: a fully wired local System fed by the
// primary's WAL stream instead of local writes. Serve reads from System();
// drive replication with Run.
type Follower struct {
	sys *sensormeta.System
	cfg Config

	head       atomic.Uint64 // primary's last seq, from the last successful fetch
	everSynced atomic.Bool   // reached the primary's head at least once
	syncedAt   atomic.Int64  // unix nanos of the last fetch that left us at head
	startedAt  time.Time
	state      atomic.Value // "bootstrapping" | "streaming" | "retrying"

	applied    atomic.Uint64 // records applied over this process's lifetime
	retries    atomic.Uint64 // failed fetches
	bootstraps atomic.Uint64 // snapshot bootstraps performed
}

// Open brings up a follower: local crash recovery first (the data
// directory is a durable smr dir, so the PR-5 torn-tail machinery applies),
// then a probe against the primary. If the primary has compacted past the
// local position — or the directory is empty and the primary's log no
// longer starts at seq 1 — the local state is wiped and rebuilt from
// GET /api/admin/snapshot/latest. Open retries transient failures with the
// configured backoff until ctx is cancelled; the returned follower's
// System serves immediately while Run streams the tail.
func Open(ctx context.Context, cfg Config) (*Follower, error) {
	c := cfg.withDefaults()
	if c.PrimaryURL == "" {
		return nil, errors.New("replica: no primary URL")
	}
	if c.Dir == "" {
		return nil, errors.New("replica: no data directory")
	}
	f := &Follower{cfg: c, startedAt: c.Clock()}
	f.state.Store("bootstrapping")
	bo := c.Backoff
	bootstrappedEmpty := false
	for {
		sys, err := sensormeta.Open(c.Dir, c.Durable)
		if err != nil {
			return nil, fmt.Errorf("replica: opening local state: %w", err)
		}
		// An empty directory starts from the primary's snapshot rather
		// than streaming the full history from seq 1. Once only: a primary
		// that is itself empty snapshots at seq 0 and we proceed to tail.
		if sys.Repo.LastSeq() == 0 && !bootstrappedEmpty {
			sys.Close()
			bootstrappedEmpty = true
			if err := f.bootstrap(ctx); err != nil {
				if errors.Is(err, ErrPrimaryNotDurable) {
					return nil, err
				}
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				c.Logf("replica: bootstrap failed: %v", err)
				bootstrappedEmpty = false
				if err := sleepCtx(ctx, bo.Next()); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Probe: can the stream resume from our position?
		batch, err := f.fetch(ctx, sys.Repo.LastSeq(), 1, 0)
		if err == nil {
			f.sys = sys
			f.noteHead(batch.LastSeq)
			f.state.Store("streaming")
			c.Logf("replica: serving from %s at seq %d (primary head %d)",
				c.Dir, sys.Repo.LastSeq(), batch.LastSeq)
			return f, nil
		}
		sys.Close()
		switch {
		case errors.Is(err, ErrPrimaryNotDurable):
			return nil, err
		case errors.Is(err, ErrPrimaryCompacted):
			c.Logf("replica: local seq %d is behind the primary's compaction horizon; re-bootstrapping", sys.Repo.LastSeq())
			if err := f.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				c.Logf("replica: bootstrap failed: %v", err)
				if err := sleepCtx(ctx, bo.Next()); err != nil {
					return nil, err
				}
			}
			// Re-open from the freshly installed snapshot (or retry).
		default:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.Logf("replica: probe of %s failed: %v", c.PrimaryURL, err)
			if err := sleepCtx(ctx, bo.Next()); err != nil {
				return nil, err
			}
		}
	}
}

// System returns the fully wired read stack this follower serves.
func (f *Follower) System() *sensormeta.System { return f.sys }

// Close releases the local durable state.
func (f *Follower) Close() error { return f.sys.Close() }

// Run streams the primary's WAL until ctx is cancelled, applying each
// batch through the smr replay path and refreshing the derived stack
// incrementally. Transient fetch failures retry with jittered exponential
// backoff, resuming from the last applied sequence; divergence and
// mid-stream compaction are fatal (restarting the process re-enters Open's
// recovery). Returns ctx.Err() on cancellation.
func (f *Follower) Run(ctx context.Context) error {
	bo := f.cfg.Backoff
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		from := f.sys.Repo.LastSeq()
		batch, err := f.fetch(ctx, from, f.cfg.BatchMax, f.cfg.PollWait)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrPrimaryCompacted) {
				return fmt.Errorf("%w (follower at seq %d); restart the follower to re-bootstrap from a fresh snapshot", ErrPrimaryCompacted, from)
			}
			if errors.Is(err, ErrPrimaryNotDurable) {
				return err
			}
			f.retries.Add(1)
			f.state.Store("retrying")
			d := bo.Next()
			f.cfg.Logf("replica: fetch from seq %d failed (attempt %d, next try in %v): %v",
				from, bo.Attempts(), d, err)
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
			continue
		}
		bo.Reset()
		f.state.Store("streaming")
		for _, rec := range batch.Records {
			if err := f.sys.Repo.ApplyReplicated(wal.Record{Seq: rec.Seq, Data: rec.Data}); err != nil {
				return fmt.Errorf("replica: applying seq %d: %w", rec.Seq, err)
			}
			f.applied.Add(1)
		}
		if len(batch.Records) > 0 {
			if err := f.sys.Refresh(); err != nil {
				return fmt.Errorf("replica: refresh after seq %d: %w", f.sys.Repo.LastSeq(), err)
			}
		}
		f.noteHead(batch.LastSeq)
	}
}

func (f *Follower) noteHead(head uint64) {
	f.head.Store(head)
	if f.sys.Repo.LastSeq() >= head {
		f.syncedAt.Store(f.cfg.Clock().UnixNano())
		f.everSynced.Store(true)
	}
}

// ReplicaLag implements the server's ReplicaSource: the follower's
// distance behind the primary in sequence numbers, the wall-clock time
// since it was last known to be at the head, and whether it has ever
// reached the head at all.
func (f *Follower) ReplicaLag() (seqLag uint64, wall time.Duration, synced bool) {
	head := f.head.Load()
	applied := f.sys.Repo.LastSeq()
	if head > applied {
		seqLag = head - applied
	}
	synced = f.everSynced.Load()
	now := f.cfg.Clock()
	if synced {
		wall = now.Sub(time.Unix(0, f.syncedAt.Load()))
	} else {
		wall = now.Sub(f.startedAt)
	}
	return seqLag, wall, synced
}

// PrimaryURL implements the server's ReplicaSource: the primary that
// writes rejected by this follower must go to.
func (f *Follower) PrimaryURL() string { return f.cfg.PrimaryURL }

// Stats is the replication block surfaced by /api/admin/stats.
type Stats struct {
	Primary        string `json:"primary"`
	State          string `json:"state"`
	LastApplied    uint64 `json:"lastApplied"`
	PrimaryHead    uint64 `json:"primaryHead"`
	SeqLag         uint64 `json:"seqLag"`
	WallLagMs      int64  `json:"wallLagMs"`
	Synced         bool   `json:"synced"`
	RecordsApplied uint64 `json:"recordsApplied"`
	Retries        uint64 `json:"retries"`
	Bootstraps     uint64 `json:"bootstraps"`
}

// ReplicaStats implements the server's ReplicaSource.
func (f *Follower) ReplicaStats() any {
	seqLag, wall, synced := f.ReplicaLag()
	state, _ := f.state.Load().(string)
	return Stats{
		Primary:        f.cfg.PrimaryURL,
		State:          state,
		LastApplied:    f.sys.Repo.LastSeq(),
		PrimaryHead:    f.head.Load(),
		SeqLag:         seqLag,
		WallLagMs:      wall.Milliseconds(),
		Synced:         synced,
		RecordsApplied: f.applied.Load(),
		Retries:        f.retries.Load(),
		Bootstraps:     f.bootstraps.Load(),
	}
}

// walBatch mirrors the wal endpoint's response body.
type walBatch struct {
	From    uint64      `json:"from"`
	LastSeq uint64      `json:"lastSeq"`
	Records []walRecord `json:"records"`
}

// walRecord's Data is the WAL payload verbatim — binary since record
// format v2, so it rides the JSON feed as a base64 string and is decoded
// downstream by smr.DecodeWALOp (which also accepts v1 JSON payloads from
// an older primary).
type walRecord struct {
	Seq  uint64 `json:"seq"`
	Data []byte `json:"data"`
}

// fetch pulls one batch of records after fromSeq, long-polling for wait
// when the primary has nothing new. Every request carries a deadline of
// wait + FetchTimeout.
func (f *Follower) fetch(ctx context.Context, fromSeq uint64, max int, wait time.Duration) (*walBatch, error) {
	url := fmt.Sprintf("%s/api/admin/wal?from=%d&max=%d&wait=%dms",
		f.cfg.PrimaryURL, fromSeq, max, wait.Milliseconds())
	rctx, cancel := context.WithTimeout(ctx, wait+f.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: wal fetch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return nil, ErrPrimaryCompacted
	case http.StatusConflict:
		return nil, ErrPrimaryNotDurable
	default:
		return nil, fmt.Errorf("replica: wal fetch: primary returned %s", resp.Status)
	}
	var batch walBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		// Truncated or corrupted mid-chunk: retryable, nothing was applied.
		return nil, fmt.Errorf("replica: decoding wal batch: %w", err)
	}
	return &batch, nil
}

// bootstrap wipes the follower's replica-managed files and installs the
// primary's latest snapshot under the name smr.Open discovers, so the next
// Open restores it and the stream resumes from the snapshot's seq.
func (f *Follower) bootstrap(ctx context.Context) error {
	f.bootstraps.Add(1)
	f.state.Store("bootstrapping")
	if err := wipeReplicaFiles(f.cfg.Dir); err != nil {
		return fmt.Errorf("replica: clearing stale state: %w", err)
	}
	rctx, cancel := context.WithTimeout(ctx, f.cfg.FetchTimeout+2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		f.cfg.PrimaryURL+"/api/admin/snapshot/latest", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("replica: snapshot fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return ErrPrimaryNotDurable
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot fetch: primary returned %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response missing X-Snapshot-Seq: %w", err)
	}
	// Stream to a temp file, fsync, then rename into the discovered name —
	// a crash mid-download leaves no half snapshot for Open to trust.
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(f.cfg.Dir, "snapshot.download")
	w, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("replica: downloading snapshot: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(f.cfg.Dir, smr.SnapshotFileName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	f.cfg.Logf("replica: bootstrapped snapshot at seq %d into %s", seq, f.cfg.Dir)
	return nil
}

// wipeReplicaFiles removes the files the replication machinery manages —
// snapshots, WAL segments, partial downloads — leaving anything else in
// the directory alone.
func wipeReplicaFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		managed := strings.HasPrefix(name, "snapshot") && (strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".download"))
		managed = managed || (strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"))
		if !managed {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
