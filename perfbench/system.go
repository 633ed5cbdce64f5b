package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	sensormeta "repro"
	"repro/internal/server"
	"repro/internal/smr"
	"repro/internal/wal"
)

// durableOptions is what `smr-server -data-dir` runs with by default:
// fsync on every write, background snapshots after 64 MiB of log, no
// age-based snapshots. Auto-refresh stays off and the shard count is the
// default (0).
func durableOptions() smr.DurableOptions {
	return smr.DurableOptions{Fsync: wal.SyncAlways, AutoSnapshotBytes: 64 << 20}
}

// instance is one running system: the durable System, its HTTP server on a
// loopback port, and the single keep-alive client connection that drives
// it.
type instance struct {
	dir    string
	sys    *sensormeta.System
	srv    *server.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

// open starts a System on dir and serves it on a loopback port.
func open(dir string) (*instance, error) {
	sys, err := sensormeta.OpenShards(dir, durableOptions(), 0)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		dir:  dir,
		sys:  sys,
		srv:  server.New(sys),
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		// One closed-loop connection: the transport never holds more than
		// one, and the loop never has two requests in flight.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	in.hs = &http.Server{Handler: in.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// stop shuts the HTTP server down and closes the System. It returns once
// the serving goroutine has ended.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.client.CloseIdleConnections()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.srv.Close()
	if cerr := in.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// call sends one request and returns the status and body.
func (in *instance) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// load writes the corpus through the write path — 256-page batches on
// POST /api/v1/pages:batch, tags on POST /api/tags — and runs the first
// refresh. With a tracer, the page batches go to System.PutPages directly
// so each batch is timed at that layer.
func (in *instance) load(c *corpus, tr *tracer) error {
	for i := 0; i < len(c.pages); i += loadBatch {
		batch := c.pages[i:min(i+loadBatch, len(c.pages))]
		if tr != nil {
			if _, err := tr.putPages(in.sys, batch); err != nil {
				return err
			}
			continue
		}
		body, err := json.Marshal(struct {
			Pages []smr.PageWrite `json:"pages"`
		}{batch})
		if err != nil {
			return err
		}
		if err := in.expectOK(http.MethodPost, "/api/v1/pages:batch", body); err != nil {
			return err
		}
	}
	for _, tg := range c.tags {
		body, err := json.Marshal(struct {
			tagWrite
			Author string `json:"author"`
		}{tg, "generator"})
		if err != nil {
			return err
		}
		if err := in.expectOK(http.MethodPost, "/api/tags", body); err != nil {
			return err
		}
	}
	return in.expectOK(http.MethodPost, "/api/refresh", nil)
}

func (in *instance) expectOK(method, path string, body []byte) error {
	status, out, err := in.call(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, status, out)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// setUp builds a fresh instance in a new directory under root: empty data
// dir → corpus loaded → first refresh done. It returns the wall time taken.
func setUp(root string, n int, c *corpus, tr *tracer) (*instance, time.Duration, error) {
	dir := filepath.Join(root, fmt.Sprintf("data-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	in, err := open(dir)
	if err != nil {
		return nil, 0, err
	}
	if err := in.load(c, tr); err != nil {
		in.stop()
		return nil, 0, fmt.Errorf("load corpus: %w", err)
	}
	return in, time.Since(start), nil
}
