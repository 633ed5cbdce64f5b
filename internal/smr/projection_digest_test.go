package smr_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/smr"
	"repro/internal/wal"
	"repro/internal/workload"
)

// projectionDigest pins the relational projection the write path produces
// for a fixed corpus and mutation list: every table's live rows with their
// row ids, in scan order, each cell with its type. Equal digests mean equal
// rows, equal row ids and therefore an equal result order for SQL without
// ORDER BY. The value was recorded on the last tree whose snapshots still
// embedded a serialized copy of the projection, by running this body with
//
//	go test -run TestProjectionDigest -v ./internal/smr
//
// and copying the digest the failure message printed; the tree without
// that copy must reproduce it exactly.
const projectionDigest = "344a8ab064db08b70e610e271443d4da4370e5e3074304185924e7bfd041b49f"

// digestCorpus fills repo with the seeded corpus of the digest on a fixed
// clock that advances one second per reading.
func digestCorpus(t *testing.T, repo *smr.Repository) {
	t.Helper()
	base := time.Date(2011, 4, 11, 0, 0, 0, 0, time.UTC)
	tick := 0
	repo.Wiki.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	})
	if _, err := workload.BuildCorpus(repo, workload.CorpusOptions{
		Sites: 5, Deployments: 12, Sensors: 120, Seed: 17, TagsPerSensor: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

// digestMutations applies the digest's fixed writes to the corpus:
// overwrites (which move a page's rows to the end of every table), tags
// and one DeletePage.
func digestMutations(t *testing.T, repo *smr.Repository) {
	t.Helper()
	pick := func(ns string, n int) string {
		rs, err := repo.QuerySQL(fmt.Sprintf(
			"SELECT title FROM pages WHERE namespace = '%s' ORDER BY title LIMIT 1 OFFSET %d", ns, n))
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("no %s page #%d: %v", ns, n, err)
		}
		return rs.Rows[0][0].Text0()
	}
	s1, s2, d1 := pick("Sensor", 3), pick("Sensor", 10), pick("Deployment", 1)
	for _, w := range []struct{ title, text string }{
		{s1, fmt.Sprintf("Moved to [[%s]].\n[[partOf::%s]]\n[[samplingRate::1e5]]\n[[status::retired]]", d1, d1)},
		{s2, "[[owner::O'Brien]] [[offset::-2.5]] [[zero::-0]] [[measures::wind speed]]"},
		{d1, "Rebuilt. [[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]] [[startYear::2011]]"},
		{"Sensor:New-01", fmt.Sprintf("[[partOf::%s]] [[partOf::%s]] [[samplingRate::42]] [[%s]]", d1, d1, s1)},
		{s1, "Back again. [[samplingRate::600]] [[latitude::46.8]] [[zero::-0]] [[owner::O'Brien]]"},
	} {
		if _, err := repo.PutPage(w.title, "editor", w.text, "digest"); err != nil {
			t.Fatalf("PutPage(%s): %v", w.title, err)
		}
	}
	for _, tg := range [][2]string{{"Sensor:New-01", "Fresh"}, {s1, "moved"}, {"Sensor:New-01", "fresh"}} {
		if err := repo.AddTag(tg[0], tg[1], "tagger"); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := repo.DeletePage(s2); !ok || err != nil {
		t.Fatalf("DeletePage = %v, %v", ok, err)
	}
}

// writeRow renders a row's cells, each with its type.
func writeRow(w io.Writer, row relational.Row) {
	for _, v := range row {
		if v.IsNull() {
			fmt.Fprint(w, " NULL")
		} else {
			fmt.Fprintf(w, " %s:%q", v.Type(), v.String())
		}
	}
	fmt.Fprintln(w)
}

func TestProjectionDigest(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	digestCorpus(t, repo)
	digestMutations(t, repo)

	h := sha256.New()
	for _, name := range []string{"annotations", "links", "pages", "tags"} {
		tab, ok := repo.DB.Table(name)
		if !ok {
			t.Fatalf("table %s missing", name)
		}
		fmt.Fprintf(h, "%s:", name)
		tab.Scan(func(id int64, row relational.Row) bool {
			fmt.Fprintf(h, "%d", id)
			writeRow(h, row)
			return true
		})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != projectionDigest {
		t.Errorf("projection digest = %s, want %s", got, projectionDigest)
	}
}

// scanOrder renders SELECT * without ORDER BY over every projection table:
// the rows and the order SQL returns them in when no order is asked for.
func scanOrder(t *testing.T, repo *smr.Repository) string {
	t.Helper()
	var b strings.Builder
	for _, table := range []string{"pages", "annotations", "links", "tags"} {
		rs, err := repo.QuerySQL("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s (%d rows):\n", table, len(rs.Rows))
		for _, row := range rs.Rows {
			writeRow(&b, row)
		}
	}
	return b.String()
}

// TestRestoreKeepsScanOrder: a restored repository returns the rows of
// every projection table in the order the original did when the query
// has no ORDER BY — after an in-memory snapshot round trip, and after a
// durable reopen that restores a snapshot and replays the log tail.
// Overwrites move a page's rows to the end of each table, so restoring
// pages in title order (or any order but the pages table's) fails here.
func TestRestoreKeepsScanOrder(t *testing.T) {
	t.Run("SaveSnapshot/LoadSnapshot", func(t *testing.T) {
		repo, err := smr.New()
		if err != nil {
			t.Fatal(err)
		}
		digestCorpus(t, repo)
		digestMutations(t, repo)
		var buf bytes.Buffer
		if err := repo.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := smr.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if got, want := scanOrder(t, restored), scanOrder(t, repo); got != want {
			t.Errorf("restored scan order differs:\n%s", firstDiff(got, want))
		}
	})
	t.Run("Snapshot/Close/Open", func(t *testing.T) {
		dir := t.TempDir()
		opts := smr.DurableOptions{Fsync: wal.SyncNever}
		repo, err := smr.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		digestCorpus(t, repo)
		if _, err := repo.Snapshot(); err != nil {
			t.Fatal(err)
		}
		digestMutations(t, repo)
		want := scanOrder(t, repo)
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := smr.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		if got := scanOrder(t, reopened); got != want {
			t.Errorf("reopened scan order differs:\n%s", firstDiff(got, want))
		}
	})
}

// firstDiff reports the first line where got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
