package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCombinedEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{
		"sparql": "SELECT ?page WHERE { ?page <smr://prop/status> \"active\" }",
		"sql": "SELECT page, numeric FROM annotations WHERE property = 'samplingrate'",
		"limit": 5
	}`
	resp, err := http.Post(ts.URL+"/api/combined", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Hint    string     `json:"hint"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) == 0 || len(out.Rows) > 5 {
		t.Errorf("rows = %d", len(out.Rows))
	}
	if out.Columns[0] != "page" || out.Columns[1] != "sql.numeric" {
		t.Errorf("columns = %v", out.Columns)
	}
	// Sensors carry coordinates: the manager should route to the map.
	if out.Hint != "map" {
		t.Errorf("hint = %s, want map", out.Hint)
	}
}

func TestCombinedEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []string{
		`{}`,                       // no parts
		`{"sql": "garbage"}`,       // bad SQL
		`{"sparql": "not sparql"}`, // bad SPARQL
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/api/combined", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestV1CombinedReadsOneState runs the one-state check of a combined query
// through POST /api/v1/combined. A writer flips one page between status
// "active" and "inactive" while readers ask for the pages that are active
// in the RDF projection and inactive in the relational one. No single
// repository state satisfies both parts, so no response may contain the
// page.
func TestV1CombinedReadsOneState(t *testing.T) {
	sys, ts := newTestServer(t)
	const title = "Sensor:Flip-01"
	put := func(status string) error {
		_, err := sys.PutPage(title, "w", "[[measures::wind speed]] [[status::"+status+"]]", "")
		return err
	}
	if err := put("active"); err != nil {
		t.Fatal(err)
	}
	combined := func(sqlStatus string) (string, error) {
		body, err := json.Marshal(map[string]string{
			"sparql": `SELECT ?page WHERE { ?page <smr://prop/status> "active" }`,
			"sql":    "SELECT page FROM annotations WHERE property = 'status' AND value = '" + sqlStatus + "'",
		})
		if err != nil {
			return "", err
		}
		resp, err := http.Post(ts.URL+"/api/v1/combined", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		return string(out), err
	}
	// The query shape can return the page: with both parts asking for
	// "active", the quiescent state satisfies them.
	if body, err := combined("active"); err != nil || !strings.Contains(body, title) {
		t.Fatalf("consistent query misses %s (%v): %s", title, err, body)
	}

	stop := make(chan struct{})
	var flips atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for status := "inactive"; ; {
			select {
			case <-stop:
				return
			default:
			}
			if err := put(status); err != nil {
				t.Error(err)
				return
			}
			flips.Add(1)
			if status == "active" {
				status = "inactive"
			} else {
				status = "active"
			}
		}
	}()

	const readers, perReader = 2, 300
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				body, err := combined("inactive")
				if err != nil {
					t.Error(err)
					return
				}
				if strings.Contains(body, title) {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if flips.Load() == 0 {
		t.Fatal("the writer never flipped the page during the reads")
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d combined responses joined two repository states (%d flips)",
			n, readers*perReader, flips.Load())
	}
}
