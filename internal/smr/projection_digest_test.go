package smr_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/smr"
	"repro/internal/workload"
)

// projectionDigest pins the relational projection the write path produces
// for a fixed corpus and mutation list: the bytes of DB.Save plus every
// table's live row ids in scan order. Equal digests mean equal rows, equal
// row ids and therefore an equal result order for SQL without ORDER BY.
// The value was recorded while the projection was still written through
// SQL text (DELETE/INSERT statements), by running
//
//	go test -run TestProjectionDigest -v ./internal/smr
//
// and copying the digest the failure message printed; the typed write path
// must reproduce it exactly.
const projectionDigest = "79dfb531feee0642de0a3c65f7864003c7a3c2700f3a0d7ec77e57d4d8b05e55"

func TestProjectionDigest(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
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

	h := sha256.New()
	if err := repo.DB.Save(h); err != nil {
		t.Fatal(err)
	}
	for _, name := range repo.DB.TableNames() {
		tab, _ := repo.DB.Table(name)
		fmt.Fprintf(h, "%s:", name)
		tab.Scan(func(id int64, _ relational.Row) bool {
			fmt.Fprintf(h, "%d,", id)
			return true
		})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != projectionDigest {
		t.Errorf("projection digest = %s, want %s", got, projectionDigest)
	}
}
