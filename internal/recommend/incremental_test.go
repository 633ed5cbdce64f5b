package recommend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ranking"
	"repro/internal/smr"
)

// churnRepo builds a repository with interlinked pages for churn tests.
func churnRepo(t *testing.T, n int) *smr.Repository {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[samplingRate::%d]]", i%5, i%7, 10+i%3)
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:C%03d", i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// TestIncrementalMatchesRebuild drives random churn through Update and
// checks the recommender's state is bit-identical to one rebuilt from
// scratch over the same repository and ranks: identical property scores,
// top properties, and recommendations.
func TestIncrementalMatchesRebuild(t *testing.T) {
	repo := churnRepo(t, 60)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(7))

	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			title := fmt.Sprintf("Sensor:C%03d", rng.Intn(60))
			switch rng.Intn(4) {
			case 0:
				repo.DeletePage(title)
			case 1: // re-create or overwrite with a different property mix
				text := fmt.Sprintf("[[calibrated::%d]] [[measures::m%d]]", rng.Intn(100), rng.Intn(7))
				if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			case 2: // annotation-free revision: contributions must retract
				if _, err := repo.PutPage(title, "churn", "plain prose only", ""); err != nil {
					t.Fatal(err)
				}
			default:
				text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[owner::u%d]]", rng.Intn(5), rng.Intn(4))
				if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := inc.Update(); st.Full {
			t.Fatalf("round %d: journal overran for a live consumer", round)
		}
		want := New(repo, rk.Scores())

		if !reflect.DeepEqual(inc.propScore, want.propScore) {
			t.Fatalf("round %d: property scores diverge\nincremental = %v\nrebuild     = %v",
				round, inc.propScore, want.propScore)
		}
		if got, wantTop := inc.TopProperties(10), want.TopProperties(10); !reflect.DeepEqual(got, wantTop) {
			t.Fatalf("round %d: top properties %v vs %v", round, got, wantTop)
		}
		seeds := []string{"Sensor:C001", "Sensor:C014", "Sensor:C039"}
		if got, wantRec := inc.Recommend(seeds, "", 10), want.Recommend(seeds, "", 10); !reflect.DeepEqual(got, wantRec) {
			t.Fatalf("round %d: recommendations diverge\nincremental = %+v\nrebuild     = %+v", round, got, wantRec)
		}
	}
}

// TestUpdateFallsBackOnTrimmedJournal checks the window-overrun contract:
// a consumer whose position was trimmed away rebuilds from scratch.
func TestUpdateFallsBackOnTrimmedJournal(t *testing.T) {
	repo := churnRepo(t, 10)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	if _, err := repo.PutPage("Sensor:C000", "t", "[[measures::m0]]", ""); err != nil {
		t.Fatal(err)
	}
	repo.Journal().TrimTo(repo.LastSeq()) // trim past the consumer's position
	st := inc.Update()
	if !st.Full {
		t.Fatalf("expected full rebuild after journal trim, got %+v", st)
	}
	want := New(repo, rk.Scores())
	if !reflect.DeepEqual(inc.propScore, want.propScore) {
		t.Fatal("post-fallback state differs from rebuild")
	}
}

// TestSetRanksRescoresWithoutRescan checks that installing a new PageRank
// vector reproduces a from-scratch build over the new scores.
func TestSetRanksRescoresWithoutRescan(t *testing.T) {
	repo := churnRepo(t, 20)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	// Structural change → new ranks.
	if _, err := repo.PutPage("Sensor:C000", "t", "[[partOf::Deployment:D9]]", ""); err != nil {
		t.Fatal(err)
	}
	rk2 := ranking.New(repo)
	if err := rk2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	inc.Update()
	inc.SetRanks(rk2.Scores())
	want := New(repo, rk2.Scores())
	if !reflect.DeepEqual(inc.propScore, want.propScore) {
		t.Fatalf("rescore diverges\nincremental = %v\nrebuild     = %v", inc.propScore, want.propScore)
	}
	st := inc.Stats()
	if st.Rescores != 1 || st.DeltaUpdates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecommendIndexMatchesScan checks the inverted (property, value) →
// pages index path returns exactly the corpus-scan baseline's
// recommendations — after construction and after journal-driven churn —
// and that the incrementally maintained pair index matches a rebuild.
func TestRecommendIndexMatchesScan(t *testing.T) {
	repo := churnRepo(t, 80)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rec := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(21))
	seedSets := [][]string{
		{"Sensor:C001"},
		{"Sensor:C002", "Sensor:C010", "Sensor:C033"},
		{"Sensor:C005", "missing page"},
	}
	for round := 0; round < 5; round++ {
		for _, seeds := range seedSets {
			got := rec.Recommend(seeds, "", 15)
			want := rec.RecommendScan(seeds, "", 15)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d seeds %v: index path diverges from scan\nindex = %+v\nscan  = %+v",
					round, seeds, got, want)
			}
			if round == 0 && len(got) == 0 && len(seeds) == 1 {
				t.Fatalf("seeds %v produced no recommendations; fixture too weak", seeds)
			}
		}
		for i := 0; i < 10; i++ {
			title := fmt.Sprintf("Sensor:C%03d", rng.Intn(80))
			if rng.Intn(5) == 0 {
				repo.DeletePage(title)
				continue
			}
			text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[owner::u%d]]",
				rng.Intn(5), rng.Intn(7), rng.Intn(4))
			if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
		if st := rec.Update(); st.Full {
			t.Fatalf("round %d: journal overran", round)
		}
		want := New(repo, rk.Scores())
		if !reflect.DeepEqual(rec.pairPages, want.pairPages) {
			t.Fatalf("round %d: pair index diverges from rebuild", round)
		}
		if !reflect.DeepEqual(rec.pagePairs, want.pagePairs) {
			t.Fatalf("round %d: page pair sets diverge from rebuild", round)
		}
	}
}

// checkMatchesRebuild requires rec to equal a recommender built from
// scratch over the same repository and ranks: bit-identical property
// scores, the same top properties and the same recommendation lists.
func checkMatchesRebuild(t *testing.T, label string, rec *Recommender, repo *smr.Repository, ranks map[string]float64, seedSets [][]string) {
	t.Helper()
	want := New(repo, ranks)
	if !reflect.DeepEqual(rec.propScore, want.propScore) {
		t.Fatalf("%s: property scores diverge\nincremental = %v\nrebuild     = %v", label, rec.propScore, want.propScore)
	}
	if got, wantTop := rec.TopProperties(10), want.TopProperties(10); !reflect.DeepEqual(got, wantTop) {
		t.Fatalf("%s: top properties %v vs %v", label, got, wantTop)
	}
	for _, seeds := range seedSets {
		if got, wantRec := rec.Recommend(seeds, "", 12), want.Recommend(seeds, "", 12); !reflect.DeepEqual(got, wantRec) {
			t.Fatalf("%s seeds %v: recommendations diverge\nincremental = %+v\nrebuild     = %+v", label, seeds, got, wantRec)
		}
	}
}

// TestChurnAndRankSwapMatchRebuild drives rounds of journal churn (writes
// and deletes) through Update and then installs a new PageRank vector with
// SetRanks; after every step the recommender must equal a rebuild.
func TestChurnAndRankSwapMatchRebuild(t *testing.T) {
	repo := churnRepo(t, 70)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rec := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(17))
	seedSets := [][]string{
		{"Sensor:C001"},
		{"Sensor:C002", "Sensor:C010", "Sensor:C033"},
		{"Sensor:C005", "Sensor:C060", "missing page"},
	}
	if len(rec.Recommend(seedSets[0], "", 12)) == 0 {
		t.Fatalf("seeds %v produced no recommendations; fixture too weak", seedSets[0])
	}
	checkMatchesRebuild(t, "construction", rec, repo, rk.Scores(), seedSets)

	for round := 1; round <= 5; round++ {
		for i := 0; i < 9; i++ {
			title := fmt.Sprintf("Sensor:C%03d", rng.Intn(70))
			if rng.Intn(5) == 0 {
				repo.DeletePage(title)
				continue
			}
			text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[owner::u%d]]",
				rng.Intn(5), rng.Intn(7), rng.Intn(4))
			if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
		if st := rec.Update(); st.Full {
			t.Fatalf("round %d: journal overran", round)
		}
		checkMatchesRebuild(t, fmt.Sprintf("round %d", round), rec, repo, rk.Scores(), seedSets)
	}

	// A rank swap rescores every property from the retained carriers.
	rk2 := ranking.New(repo)
	if err := rk2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rec.SetRanks(rk2.Scores())
	checkMatchesRebuild(t, "rank swap", rec, repo, rk2.Scores(), seedSets)
}

// TestSetRanksThenUpdateMatchesRebuild follows System.Refresh's order:
// SetRanks installs the new PageRank first, then Update applies pages
// whose property set is kept but whose own rank moved. The kept
// properties must end up summing the new ranks, bit for bit as a rebuild.
func TestSetRanksThenUpdateMatchesRebuild(t *testing.T) {
	repo := churnRepo(t, 40)
	for d := 0; d < 5; d++ {
		text := fmt.Sprintf("[[locatedIn::Site:S%d]] [[operatedBy::o%d]]", d%2, d)
		if _, err := repo.PutPage(fmt.Sprintf("Deployment:D%d", d), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rec := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(5))
	seedSets := [][]string{{"Deployment:D1"}, {"Sensor:C003", "Deployment:D4"}}

	for round := 1; round <= 4; round++ {
		before := rk.Scores()
		// Rewrite every deployment with new values under the same
		// properties, and move sensors between deployments so the
		// deployments' ranks move.
		var kept []string
		for d := 0; d < 5; d++ {
			title := fmt.Sprintf("Deployment:D%d", d)
			text := fmt.Sprintf("[[locatedIn::Site:S%d]] [[operatedBy::o%d]]", rng.Intn(3), rng.Intn(9))
			if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, title)
		}
		for i := 0; i < 12; i++ {
			text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[samplingRate::%d]]",
				rng.Intn(5), rng.Intn(7), 10+rng.Intn(3))
			if _, err := repo.PutPage(fmt.Sprintf("Sensor:C%03d", rng.Intn(40)), "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rk.Update(); err != nil {
			t.Fatal(err)
		}
		after := rk.Scores()
		moved := 0
		for _, title := range kept {
			if before[title] != after[title] {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("round %d: no kept-property page's rank moved; fixture too weak", round)
		}
		rec.SetRanks(after)
		if st := rec.Update(); st.Full || st.Applied == 0 {
			t.Fatalf("round %d: update = %+v", round, st)
		}
		checkMatchesRebuild(t, fmt.Sprintf("round %d", round), rec, repo, after, seedSets)
	}
}
