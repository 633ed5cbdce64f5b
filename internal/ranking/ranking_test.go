package ranking

import (
	"math"
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

func TestNewRankerScores(t *testing.T) {
	repo := fixtureRepo(t)
	r, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Method != "Gauss-Seidel" {
		t.Errorf("default method = %s", r.Method)
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
	if r.Result() == nil || !r.Result().Converged {
		t.Error("solver result missing or unconverged")
	}
}

func TestEmptyRepositoryRanker(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores()) != 0 || r.Score("anything") != 0 {
		t.Error("empty repo should produce empty scores")
	}
	if got := r.TopPages(3); len(got) != 0 {
		t.Errorf("TopPages on empty = %v", got)
	}
}

func TestUnknownMethodErrors(t *testing.T) {
	repo := fixtureRepo(t)
	if _, err := New(repo, "Cholesky", pagerank.Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestInstallAndSortRank(t *testing.T) {
	repo := fixtureRepo(t)
	r, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := search.NewEngine(repo)
	r.Install(e)
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
	r, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := r.Result().Iterations

	// Small change: one new sensor page.
	if _, err := repo.PutPage("Sensor:S3", "t", "[[partOf::Deployment:A]] new sensor", ""); err != nil {
		t.Fatal(err)
	}
	updated, err := r.Update(repo)
	if err != nil {
		t.Fatal(err)
	}
	if len(updated.Scores()) != 6 {
		t.Fatalf("scores = %d, want 6", len(updated.Scores()))
	}
	// Warm-started result must match a cold solve on the new graph.
	fresh, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range fresh.Scores() {
		if d := math.Abs(updated.Scores()[id] - s); d > 1e-7 {
			t.Errorf("warm score for %s off by %v", id, d)
		}
	}
	// On a graph this small both starts converge in a handful of sweeps;
	// just require the warm path not to blow up. The genuine warm-start
	// advantage is asserted at scale in internal/pagerank's tests.
	if updated.Result().Iterations > cold+2 {
		t.Errorf("warm start took %d sweeps, cold took %d", updated.Result().Iterations, cold)
	}
}

func TestUpdateOnEmptyAndFromEmpty(t *testing.T) {
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Update of an empty repo stays empty.
	u, err := r.Update(repo)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Scores()) != 0 {
		t.Errorf("scores = %v", u.Scores())
	}
	// Growing from empty: all pages are new, cold path inside Update.
	if _, err := repo.PutPage("A", "t", "[[x::B]] [[B]]", ""); err != nil {
		t.Fatal(err)
	}
	u2, err := u.Update(repo)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Scores()) != 2 {
		t.Errorf("scores after growth = %v", u2.Scores())
	}
}
