package recommend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ranking"
)

// TestShardedRecommenderMatchesUnsharded pins the sharded recommender to
// the single-shard one: property scores, top properties and every
// recommendation list must be byte-identical at all shard counts, both
// after construction and across journal-driven churn. Scores agree
// bit-for-bit because per-property shard lists are merged back into
// global title order before the rank fold, so the float additions happen
// in the same sequence regardless of partitioning.
func TestShardedRecommenderMatchesUnsharded(t *testing.T) {
	repo := churnRepo(t, 70)
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	base := New(repo, rk.Scores())
	sharded := map[int]*Recommender{}
	for _, p := range []int{2, 3, 8} {
		sharded[p] = NewSharded(repo, rk.Scores(), p)
	}
	rng := rand.New(rand.NewSource(17))
	seedSets := [][]string{
		{"Sensor:C001"},
		{"Sensor:C002", "Sensor:C010", "Sensor:C033"},
		{"Sensor:C005", "Sensor:C060", "missing page"},
	}

	check := func(round int) {
		t.Helper()
		for p, rec := range sharded {
			if !reflect.DeepEqual(rec.propScore, base.propScore) {
				t.Fatalf("round %d shards=%d: property scores diverge\nsharded   = %v\nunsharded = %v",
					round, p, rec.propScore, base.propScore)
			}
			if got, want := rec.TopProperties(10), base.TopProperties(10); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d shards=%d: top properties %v vs %v", round, p, got, want)
			}
			for _, seeds := range seedSets {
				got := rec.Recommend(seeds, "", 12)
				want := base.Recommend(seeds, "", 12)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d shards=%d seeds %v: recommendations diverge\nsharded   = %+v\nunsharded = %+v",
						round, p, seeds, got, want)
				}
				if round == 0 && p == 2 && len(seeds) == 1 && len(got) == 0 {
					t.Fatalf("seeds %v produced no recommendations; fixture too weak", seeds)
				}
			}
		}
	}
	check(0)

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
		if st := base.Update(); st.Full {
			t.Fatalf("round %d: journal overran for the unsharded consumer", round)
		}
		for p, rec := range sharded {
			if st := rec.Update(); st.Full {
				t.Fatalf("round %d shards=%d: journal overran", round, p)
			}
		}
		check(round)
	}

	// A rank swap must rescore identically at every shard count.
	rk2 := ranking.New(repo)
	if err := rk2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	base.SetRanks(rk2.Scores())
	for _, rec := range sharded {
		rec.SetRanks(rk2.Scores())
	}
	check(6)
}
