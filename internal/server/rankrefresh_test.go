package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/smr"
)

// raceSensorWrites returns one batch that points every race sensor at the
// deployment round r assigns it, so each refresh re-solves PageRank.
func raceSensorWrites(r int) []smr.PageWrite {
	var out []smr.PageWrite
	for i := 0; i < 8; i++ {
		out = append(out, smr.PageWrite{
			Title:  fmt.Sprintf("Sensor:Race-%02d", i),
			Author: "t",
			Text:   fmt.Sprintf("[[partOf::Deployment:Race-%d]] gusty sensor", (i+r)%3),
		})
	}
	return out
}

// TestRankRefreshConcurrentHTTPReaders serves the page view (which shows
// the page's PageRank) and combined queries (ordered by PageRank) while
// link-moving batch writes and refreshes install new score vectors. Run
// under -race it checks that handlers read the scores through synchronized
// holders.
func TestRankRefreshConcurrentHTTPReaders(t *testing.T) {
	sys, ts := newTestServer(t)
	if _, err := sys.PutPages(raceSensorWrites(0)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan error, 4)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	read := func(do func() error) {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := do(); err != nil {
				report(err)
				return
			}
		}
	}
	readers.Add(2)
	go read(func() error {
		resp, err := http.Get(ts.URL + "/page/Sensor:Race-00")
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /page: status %d: %s", resp.StatusCode, body)
		}
		return err
	})
	go read(func() error {
		return post(ts.URL+"/api/v1/combined", `{"keywords":"gusty sensor","limit":3}`)
	})

	var writeErr error
	for r := 1; r <= 20 && writeErr == nil; r++ {
		if _, writeErr = sys.PutPages(raceSensorWrites(r)); writeErr == nil {
			writeErr = sys.Refresh()
		}
	}
	close(done)
	readers.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
