package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	sensormeta "repro"
	"repro/internal/tagging"
	"repro/internal/workload"
)

// getBody GETs url and returns its body, failing on a non-200 status.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	return []byte(body)
}

// post POSTs body to url and reports a failure or a non-200 status.
func post(url, body string) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return nil
}

func postOK(t *testing.T, url, body string) {
	t.Helper()
	if err := post(url, body); err != nil {
		t.Fatal(err)
	}
}

// cloudBytes is what /api/tagcloud must answer for opts right now: the
// encoding of the system's current cloud.
func cloudBytes(t *testing.T, sys *sensormeta.System, opts tagging.CloudOptions) []byte {
	t.Helper()
	opts.UsePivot = true
	cloud, err := sys.TagCloud(opts)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeJSON(cloud)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestTagCloudBodyFollowsWrites(t *testing.T) {
	sys, ts := newTestServer(t)
	first := getBody(t, ts.URL+"/api/tagcloud")
	if again := getBody(t, ts.URL+"/api/tagcloud"); !bytes.Equal(first, again) {
		t.Fatal("two GETs of an unchanged cloud returned different bytes")
	}
	if want := cloudBytes(t, sys, tagging.CloudOptions{}); !bytes.Equal(first, want) {
		t.Fatal("first body is not the encoding of the current cloud")
	}

	postOK(t, ts.URL+"/api/tags", `{"page":"Sensor:temperat-0005","tag":"freshness-probe","author":"t"}`)
	postOK(t, ts.URL+"/api/refresh", "")
	after := getBody(t, ts.URL+"/api/tagcloud")
	if bytes.Equal(after, first) {
		t.Fatal("body unchanged after a tag write and refresh")
	}
	if want := cloudBytes(t, sys, tagging.CloudOptions{}); !bytes.Equal(after, want) {
		t.Fatal("body after the write is not the encoding of the current cloud")
	}
	if !bytes.Contains(after, []byte(`"freshness-probe"`)) {
		t.Fatal("new tag missing from the cloud")
	}
}

// TestTagCloudBodyPerOptions alternates two option sets, so every request
// gets a cloud other than the one encoded last.
func TestTagCloudBodyPerOptions(t *testing.T) {
	sys, ts := newTestServer(t)
	var last [2][]byte
	for i := 0; i < 8; i++ {
		minFreq := 2 + i%2
		got := getBody(t, fmt.Sprintf("%s/api/tagcloud?minfreq=%d", ts.URL, minFreq))
		if want := cloudBytes(t, sys, tagging.CloudOptions{MinFrequency: minFreq}); !bytes.Equal(got, want) {
			t.Fatalf("request %d: minfreq=%d served another cloud's bytes", i, minFreq)
		}
		last[i%2] = got
	}
	if bytes.Equal(last[0], last[1]) {
		t.Fatal("minfreq=2 and minfreq=3 clouds encode alike; the corpus cannot tell them apart")
	}
}

// TestTagCloudBodyIndependentOfHistory serves minfreq=2 right after a
// minfreq=3 cloud whose components it reuses, and from a fresh server:
// a cloud depends only on its data and options, so the bodies are equal.
func TestTagCloudBodyIndependentOfHistory(t *testing.T) {
	_, warm := newTestServer(t)
	getBody(t, warm.URL+"/api/tagcloud?minfreq=3")
	got := getBody(t, warm.URL+"/api/tagcloud?minfreq=2")
	_, fresh := newTestServer(t)
	if want := getBody(t, fresh.URL+"/api/tagcloud?minfreq=2"); !bytes.Equal(got, want) {
		t.Fatalf("minfreq=2 after minfreq=3 serves other bytes than a fresh minfreq=2:\n%.300s\nvs\n%.300s", got, want)
	}
}

// TestTagCloudBodyConcurrent races readers of one server against a tag
// writer and a refresher. HTTP readers check that every body is a whole
// encoding of a cloud; in-process readers check that the body handed out
// with a cloud is that cloud's encoding.
func TestTagCloudBodyConcurrent(t *testing.T) {
	sys, ts := newTestServer(t)
	srv := New(sys)
	defer srv.Close()
	readTS := httptest.NewServer(srv)
	defer readTS.Close()
	const writes = 20
	done := make(chan struct{})
	var readers, writer sync.WaitGroup
	// errs keeps the first few failures for the test goroutine to
	// report; report drops the rest rather than block a worker.
	errs := make(chan error, 8)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for i := 0; i < 2; i++ {
		path := readTS.URL + "/api/tagcloud"
		if i == 1 {
			path += "?minfreq=2"
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(path)
				if err != nil {
					report(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				var cloud tagging.Cloud
				if err := json.Unmarshal(body, &cloud); err != nil {
					report(fmt.Errorf("GET %s: %v", path, err))
					return
				}
				if again, err := encodeJSON(&cloud); err != nil || !bytes.Equal(again, body) {
					report(fmt.Errorf("GET %s: body is not a whole cloud encoding", path))
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		opts := tagging.CloudOptions{UsePivot: true, MinFrequency: i * 2}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cloud, err := sys.TagCloud(opts)
				if err != nil {
					report(err)
					return
				}
				body, err := srv.cloudJSON(cloud)
				if err != nil {
					report(err)
					return
				}
				want, err := encodeJSON(cloud)
				if err != nil || !bytes.Equal(body, want) {
					report(fmt.Errorf("minfreq=%d: body differs from its cloud's encoding", opts.MinFrequency))
					return
				}
			}
		}()
	}

	writer.Add(2)
	go func() {
		defer writer.Done()
		for i := 0; i < writes; i++ {
			if err := post(ts.URL+"/api/tags", fmt.Sprintf(`{"page":"Sensor:temperat-0005","tag":"race-%d","author":"t"}`, i)); err != nil {
				report(err)
			}
		}
	}()
	go func() {
		defer writer.Done()
		for i := 0; i < writes; i++ {
			if err := post(ts.URL+"/api/refresh", ""); err != nil {
				report(err)
			}
		}
	}()
	writer.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	postOK(t, ts.URL+"/api/refresh", "")
	if got, want := getBody(t, ts.URL+"/api/tagcloud"), cloudBytes(t, sys, tagging.CloudOptions{}); !bytes.Equal(got, want) {
		t.Error("settled body is not the encoding of the current cloud")
	}
}

func TestCloudParamsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []string{
		"threshold=abc", "threshold=0", "threshold=-0.5", "threshold=1.01",
		"threshold=2", "threshold=Inf", "threshold=-Inf", "threshold=NaN", "threshold=1e400",
		"minfreq=x", "minfreq=-1", "minfreq=1.5", "minfreq=99999999999999999999",
	}
	ok := []string{"threshold=1", "threshold=0.25", "threshold=1e-3", "minfreq=0", "minfreq=3", "threshold=0.5&minfreq=0"}
	for _, route := range []string{"/api/tagcloud", "/viz/tagcloud.html", "/viz/taggraph.svg"} {
		for _, q := range bad {
			code, body := get(t, ts.URL+route+"?"+q)
			if code != http.StatusBadRequest || envelopeCode(body) != "bad_request" {
				t.Errorf("%s?%s: %d %s, want the 400 bad_request envelope", route, q, code, body)
			}
		}
		for _, q := range ok {
			if code, body := get(t, ts.URL+route+"?"+q); code != http.StatusOK {
				t.Errorf("%s?%s: %d %s, want 200", route, q, code, body)
			}
		}
	}
}

func TestWriteJSONEncodingFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not one error envelope: %v\n%s", err, rec.Body)
	}
	if env.Error.Code != "internal" || !strings.HasPrefix(env.Error.Message, "encoding response:") {
		t.Errorf("envelope %+v", env.Error)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a benchmark
// measures the handler rather than a recorder's copy of the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkServeTagCloud serves GET /api/tagcloud in process over a corpus
// whose cloud has over a thousand maximal cliques. hit serves an unchanged
// cloud (the stored body); miss forgets the stored body before every
// request, so each one encodes the cloud again.
func BenchmarkServeTagCloud(b *testing.B) {
	sys, err := sensormeta.New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.BuildCorpus(sys.Repo, workload.CorpusOptions{
		Sites: 10, Deployments: 60, Sensors: 1000, Seed: 7, TagsPerSensor: 1,
	}); err != nil {
		b.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		b.Fatal(err)
	}
	srv := New(sys)
	defer srv.Close()
	req := httptest.NewRequest(http.MethodGet, "/api/tagcloud", nil)
	cloud, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(cloud.Cliques) < 1000 {
		b.Fatalf("corpus cloud has %d cliques, want at least 1000", len(cloud.Cliques))
	}
	serve := func(b *testing.B, forget bool) {
		w := &discardWriter{h: http.Header{}}
		srv.ServeHTTP(w, req) // store the body, so hit times hits from the first iteration
		b.ReportAllocs()
		for b.Loop() {
			if forget {
				srv.cloudMu.Lock()
				srv.cloudEnc = encodedCloud{}
				srv.cloudMu.Unlock()
			}
			srv.ServeHTTP(w, req)
		}
	}
	b.Run("hit", func(b *testing.B) { serve(b, false) })
	b.Run("miss", func(b *testing.B) { serve(b, true) })
}
