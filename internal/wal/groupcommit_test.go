package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitSharesFsync stages several records before any commit is
// called; the first commit becomes the flush leader and its single fsync
// must cover every staged record, so the remaining commits return without
// syncing again.
func TestGroupCommitSharesFsync(t *testing.T) {
	l, _ := openCollect(t, t.TempDir(), Options{Sync: SyncAlways})
	defer l.Close()

	const n = 10
	commits := make([]func() error, n)
	for i := 0; i < n; i++ {
		c, err := l.AppendAsync(uint64(i+1), []byte(fmt.Sprintf("staged-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		commits[i] = c
	}
	before := l.Stats()
	if before.Syncs != 0 {
		t.Fatalf("staging alone synced %d times", before.Syncs)
	}
	for i, c := range commits {
		if err := c(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Syncs != 1 {
		t.Fatalf("%d staged records cost %d fsyncs, want 1", n, st.Syncs)
	}
	if st.GroupCommits != 1 || st.GroupedAppends != n {
		t.Fatalf("group counters %d/%d, want 1/%d", st.GroupCommits, st.GroupedAppends, n)
	}
}

func TestSyncErrorLatchesFailed(t *testing.T) {
	l, _ := openCollect(t, t.TempDir(), Options{Sync: SyncAlways})
	defer l.Close()
	eio := errors.New("injected EIO")
	var calls atomic.Int32
	l.sync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			time.Sleep(10 * time.Millisecond) // let the other committers park
			return eio
		}
		return f.Sync()
	}

	const n = 8
	commits := make([]func() error, n)
	for i := range commits {
		c, err := l.AppendAsync(uint64(i+1), []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		commits[i] = c
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, c := range commits {
		wg.Add(1)
		go func(i int, c func() error) {
			defer wg.Done()
			errs[i] = c()
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, eio) {
			t.Errorf("commit of seq %d = %v, want the latched fsync error", i+1, err)
		}
	}
	if err := l.Append(n+1, []byte("after")); err == nil {
		t.Fatal("append accepted after a failed fsync")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fsync called %d times, want 1: no round may retry a failed handle", got)
	}
}

// TestGroupCommitConcurrentAppend hammers Append from many goroutines under
// -race: every record must be durable and replayable, and the shared-fsync
// pipeline must never sync more than once per append.
func TestGroupCommitConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{Sync: SyncAlways})

	const writers, perWriter = 8, 25
	var seqMu sync.Mutex
	next := uint64(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seqMu.Lock()
				next++
				seq := next
				commit, err := l.AppendAsync(seq, []byte(fmt.Sprintf("c-%d", seq)))
				seqMu.Unlock()
				if err != nil {
					t.Errorf("append %d: %v", seq, err)
					return
				}
				if err := commit(); err != nil {
					t.Errorf("commit %d: %v", seq, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	total := uint64(writers * perWriter)
	if st.Appends != total || st.LastSeq != total {
		t.Fatalf("stats %+v after %d appends", st, total)
	}
	if st.Syncs > total {
		t.Fatalf("%d syncs for %d appends — group commit made things worse", st.Syncs, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openCollect(t, dir, Options{})
	defer l2.Close()
	if uint64(len(got)) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}
