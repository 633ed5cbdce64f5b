package ranking

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/pagerank"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/smr"
)

func fixtureRepo(t *testing.T) *smr.Repository {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	// Hub structure: everything references Fieldsite:Davos.
	puts := []struct{ title, text string }{
		{"Fieldsite:Davos", "valley site"},
		{"Deployment:A", "[[locatedIn::Fieldsite:Davos]] wind deployment"},
		{"Deployment:B", "[[locatedIn::Fieldsite:Davos]] snow deployment, see [[Deployment:A]]"},
		{"Sensor:S1", "[[partOf::Deployment:A]] wind sensor"},
		{"Sensor:S2", "[[partOf::Deployment:B]] wind sensor"},
	}
	for _, p := range puts {
		if _, err := repo.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// solved returns a ranker for repo after one cold solve.
func solved(t *testing.T, repo *smr.Repository) *Ranker {
	t.Helper()
	r := New(repo)
	if err := r.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRankerScores(t *testing.T) {
	repo := fixtureRepo(t)
	if r := New(repo); len(r.Scores()) != 0 || r.cur.Load().solved {
		t.Error("an unsolved ranker should publish no scores")
	}
	r := solved(t, repo)
	if !r.cur.Load().solved {
		t.Error("a solved ranker's snapshot is not marked solved")
	}
	scores := r.Scores()
	if len(scores) != 5 {
		t.Fatalf("scores = %v", scores)
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Errorf("scores sum to %v", sum)
	}
	// The hub everything points to must rank highest.
	if top := r.TopPages(1); top[0] != "Fieldsite:Davos" {
		t.Errorf("top page = %v", top)
	}
	if r.Score("Fieldsite:Davos") <= r.Score("Sensor:S1") {
		t.Error("hub not above leaf")
	}
}

func TestEmptyRepositoryRanker(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	r := solved(t, repo)
	if len(r.Scores()) != 0 || r.Score("anything") != 0 {
		t.Error("empty repo should produce empty scores")
	}
	if got := r.TopPages(3); len(got) != 0 {
		t.Errorf("TopPages on empty = %v", got)
	}
}

// TestUnknownMethodErrors: the ranker always runs Gauss–Seidel; the other
// Fig.-3 solvers are reached by name through pagerank.Solve, which rejects
// a name outside its table.
func TestUnknownMethodErrors(t *testing.T) {
	repo := fixtureRepo(t)
	if _, err := pagerank.Solve(repo.LinkGraph(), "Cholesky", pagerank.Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestInstallAndSortRank(t *testing.T) {
	repo := fixtureRepo(t)
	r := solved(t, repo)
	e := search.NewEngine(repo)
	e.SetRanks(r.Scores())
	res, err := e.Execute(query.All{}, search.ExecOptions{SortBy: search.SortRank})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Title != "Fieldsite:Davos" {
		t.Errorf("rank-sorted first = %s", res.Results[0].Title)
	}
}

func TestUpdateWarmStart(t *testing.T) {
	repo := fixtureRepo(t)
	r := solved(t, repo)

	// Small change: one new sensor page.
	if _, err := repo.PutPage("Sensor:S3", "t", "[[partOf::Deployment:A]] new sensor", ""); err != nil {
		t.Fatal(err)
	}
	solve, err := r.Update()
	if err != nil {
		t.Fatal(err)
	}
	if solve != Warm {
		t.Fatalf("Update after a link change = %v, want Warm", solve)
	}
	if len(r.Scores()) != 6 {
		t.Fatalf("scores = %d, want 6", len(r.Scores()))
	}
	// Warm-started result must match a cold solve on the new graph.
	fresh := solved(t, repo)
	for id, s := range fresh.Scores() {
		if d := math.Abs(r.Score(id) - s); d > 1e-7 {
			t.Errorf("warm score for %s off by %v", id, d)
		}
	}
	// The sweep count of a warm start is asserted at scale in
	// internal/pagerank's tests; the ranker's warm solve is pinned bit for
	// bit by TestRankerMatchesLinkGraphRebuild.
}

func TestUpdateOnEmptyAndFromEmpty(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	r := New(repo)
	// The first Update solves even without a link change, cold.
	if solve, err := r.Update(); err != nil || solve != Cold {
		t.Fatalf("first Update = %v, %v; want Cold", solve, err)
	}
	if len(r.Scores()) != 0 || !r.cur.Load().solved {
		t.Errorf("scores = %v, solved = %v", r.Scores(), r.cur.Load().solved)
	}
	// Nothing changed and the last solve succeeded: skipped.
	if solve, err := r.Update(); err != nil || solve != Skipped {
		t.Fatalf("idle Update = %v, %v; want Skipped", solve, err)
	}
	// Growing from empty: all pages are new; the solve counts as warm (a
	// previous solve exists) though no previous score can seed it.
	if _, err := repo.PutPage("A", "t", "[[x::B]] [[B]]", ""); err != nil {
		t.Fatal(err)
	}
	if solve, err := r.Update(); err != nil || solve != Warm {
		t.Fatalf("Update after growth = %v, %v; want Warm", solve, err)
	}
	if len(r.Scores()) != 2 {
		t.Errorf("scores after growth = %v", r.Scores())
	}
}

// TestUpdatePublishesNewSnapshot checks that a solve publishes a new score
// map and leaves the one readers already hold untouched, and that a skipped
// Update publishes nothing.
func TestUpdatePublishesNewSnapshot(t *testing.T) {
	repo := fixtureRepo(t)
	r := solved(t, repo)
	held := r.Scores()
	want := make(map[string]float64, len(held))
	for k, v := range held {
		want[k] = v
	}
	snap := r.cur.Load()
	if solve, err := r.Update(); err != nil || solve != Skipped || r.cur.Load() != snap {
		t.Fatalf("idle Update = %v, %v; want Skipped with the same snapshot", solve, err)
	}
	if _, err := repo.PutPage("Sensor:S1", "t", "[[partOf::Deployment:B]] moved", ""); err != nil {
		t.Fatal(err)
	}
	if solve, err := r.Update(); err != nil || solve != Warm {
		t.Fatalf("Update = %v, %v; want Warm", solve, err)
	}
	if !reflect.DeepEqual(held, want) {
		t.Error("a solve modified the score map a reader held")
	}
	if reflect.DeepEqual(r.Scores(), held) {
		t.Error("moving a link left the scores unchanged")
	}
}
