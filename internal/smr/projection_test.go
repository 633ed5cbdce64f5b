package smr

import (
	"fmt"
	"testing"
)

// TestNonFiniteAnnotationsProjectNullNumeric: values strconv.ParseFloat
// accepts but no finite float represents (NaN, Inf, -Infinity) are stored
// as text with a NULL numeric column — the write succeeds, is journalled,
// and replays from the log and from a snapshot.
func TestNonFiniteAnnotationsProjectNullNumeric(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutPage("Sensor:Odd", "amy", "[[status::NaN]] [[samplingrate::Inf]] [[x::-Infinity]] [[y::2.5]]", ""); err != nil {
		t.Fatalf("PutPage: %v", err)
	}
	changes, _ := r.Changes(0)
	if len(changes) != 1 || changes[0].Title != "Sensor:Odd" || changes[0].Kind != ChangeUpsert {
		t.Fatalf("journal = %+v, want one upsert of Sensor:Odd", changes)
	}
	check := func(stage string, r *Repository) {
		t.Helper()
		rs, err := r.QuerySQL("SELECT property, value, numeric FROM annotations WHERE page = 'Sensor:Odd' ORDER BY property")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want := [][3]string{{"samplingrate", "Inf", "NULL"}, {"status", "NaN", "NULL"}, {"x", "-Infinity", "NULL"}, {"y", "2.5", "2.5"}}
		if len(rs.Rows) != len(want) {
			t.Fatalf("%s: rows = %v", stage, rs.Rows)
		}
		for i, row := range rs.Rows {
			if got := [3]string{row[0].Text0(), row[1].Text0(), row[2].String()}; got != want[i] {
				t.Errorf("%s: row %d = %v, want %v", stage, i, got, want[i])
			}
		}
	}
	check("live", r)
	reopen := func() {
		t.Helper()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r, err = Open(dir, DurableOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	check("after WAL replay", r)
	if _, err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	reopen()
	check("after snapshot restore", r)
	r.Close()
}

// TestSQLReadersNeverSeeHalfWrittenPages overwrites existing pages (same
// number of annotations and links each time) while SQL readers count rows:
// a page's rows are replaced under one lock hold, so every count is
// constant throughout.
func TestSQLReadersNeverSeeHalfWrittenPages(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const pages = 50
	put := func(i, round int) error {
		_, err := r.PutPage(fmt.Sprintf("Sensor:T-%02d", i), "w", fmt.Sprintf(
			"[[measures::temperature]] [[samplingRate::%d]] [[partOf::Deployment:D%d]] [[Sensor:T-%02d]]",
			round, round%3, (i+1)%pages), "")
		return err
	}
	for i := 0; i < pages; i++ {
		if err := put(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"SELECT COUNT(*) FROM pages",
		"SELECT COUNT(*) FROM annotations",
		"SELECT COUNT(*) FROM pages JOIN annotations ON annotations.page = pages.title",
		"SELECT COUNT(*) FROM links",
	}
	count := func(q string) int64 {
		rs, err := r.QuerySQL(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return -1
		}
		return rs.Rows[0][0].Int64()
	}
	want := make([]int64, len(queries))
	for i, q := range queries {
		want[i] = count(q)
	}
	if t.Failed() {
		return
	}

	done := make(chan struct{}) // closed once the writer has finished
	go func() {
		defer close(done)
		for round := 1; round <= 20; round++ {
			for i := 0; i < pages; i++ {
				if err := put(i, round); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			return
		default:
		}
		q := reads % len(queries)
		if got := count(queries[q]); got != want[q] {
			t.Errorf("read %d: %s = %d, want %d", reads, queries[q], got, want[q])
			<-done
			return
		}
	}
}

// TestSPARQLReadersNeverSeeHalfWrittenPages rewrites one page with
// unchanged content while a two-pattern SPARQL query joins two of its
// triples: the page's triples are replaced under one lock hold, and a
// query reads one view of the store, so every answer is the one row.
func TestSPARQLReadersNeverSeeHalfWrittenPages(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	put := func() error {
		_, err := r.PutPage("Sensor:W-01", "w",
			"[[measures::wind speed]] [[samplingRate::60]] [[status::active]] [[partOf::Deployment:D1]] [[Sensor:W-02]]", "")
		return err
	}
	if err := put(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?s ?r WHERE { ?s <smr://prop/measures> "wind speed" . ?s <smr://prop/samplingrate> ?r }`
	done := make(chan struct{}) // closed once the writer has finished
	go func() {
		defer close(done)
		for round := 0; round < 2000; round++ {
			if err := put(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	torn, reads := 0, 0
	for ; ; reads++ {
		select {
		case <-done:
			if torn > 0 {
				t.Errorf("%d of %d queries saw a half-written page", torn, reads)
			}
			return
		default:
		}
		res, err := r.QuerySPARQL(q)
		if err != nil {
			t.Error(err)
			<-done
			return
		}
		if len(res.Rows) != 1 {
			torn++
		}
	}
}
