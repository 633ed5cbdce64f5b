package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCombinedPartsReadOneState checks that the SPARQL and SQL parts of one
// combined query read the same repository state. A writer flips one page
// between status "active" and "inactive" while readers ask for the pages
// that are active in the RDF projection and inactive in the relational
// one. No single state satisfies both parts, so the page must never come
// back.
func TestCombinedPartsReadOneState(t *testing.T) {
	repo, m := fixture(t)
	const title = "Sensor:S9"
	put := func(status string) error {
		_, err := repo.PutPage(title, "w", "[[measures::wind speed]] [[status::"+status+"]]", "")
		return err
	}
	if err := put("active"); err != nil {
		t.Fatal(err)
	}
	q := CombinedQuery{
		SPARQL: `SELECT ?page WHERE { ?page <smr://prop/status> "active" }`,
		SQL:    "SELECT page FROM annotations WHERE property = 'status' AND value = 'inactive'",
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

	const readers, perReader = 2, 2000
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				res, err := m.Execute(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Titles) > 0 {
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
		t.Fatalf("%d of %d combined queries joined two repository states (%d flips)",
			n, readers*perReader, flips.Load())
	}
}
