package recommend

import (
	"testing"

	"repro/internal/ranking"
	"repro/internal/smr"
	"repro/internal/wiki"
)

func fixture(t *testing.T) (*smr.Repository, *Recommender) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	puts := []struct{ title, text string }{
		{"Fieldsite:Davos", "[[canton::GR]]"},
		{"Deployment:A", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]]"},
		{"Deployment:B", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]]"},
		{"Deployment:C", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::EPFL]]"},
		{"Sensor:S1", "[[partOf::Deployment:A]] [[measures::wind speed]]"},
		{"Sensor:S2", "[[partOf::Deployment:B]] [[measures::wind speed]]"},
		{"Sensor:S3", "[[partOf::Deployment:C]] [[measures::temperature]]"},
		{"Unrelated", "no annotations here"},
	}
	for _, p := range puts {
		if _, err := repo.PutPage(p.title, "t", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return repo, New(repo, rk.Scores())
}

func TestPropertyScores(t *testing.T) {
	_, rec := fixture(t)
	// locatedIn appears on three deployment pages; canton only on the
	// (high-rank) fieldsite. Scores must be positive for used properties.
	if rec.propScore["locatedin"] <= 0 {
		t.Error("locatedIn score not positive")
	}
	if rec.propScore["nosuch"] != 0 {
		t.Error("unknown property has a score")
	}
	top := rec.TopProperties(3)
	if len(top) != 3 {
		t.Fatalf("TopProperties = %v", top)
	}
	// All returned properties exist.
	for _, p := range top {
		if rec.propScore[p] <= 0 {
			t.Errorf("top property %q has score %v", p, rec.propScore[p])
		}
	}
}

func TestRecommendSharedAnnotations(t *testing.T) {
	_, rec := fixture(t)
	// Seed with Sensor:S1 (wind, deployment A). S2 shares measures=wind
	// speed; S3 shares nothing with S1 directly.
	recs := rec.Recommend([]string{"Sensor:S1"}, "", 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if recs[0].Title != "Sensor:S2" {
		t.Errorf("first recommendation = %+v", recs)
	}
	if len(recs[0].Shared) == 0 || recs[0].Shared[0] != "measures=wind speed" {
		t.Errorf("shared pairs = %v", recs[0].Shared)
	}
	// Seeds never recommended.
	for _, r := range recs {
		if r.Title == "Sensor:S1" {
			t.Error("seed recommended")
		}
	}
}

func TestRecommendDeploymentNeighbours(t *testing.T) {
	_, rec := fixture(t)
	// Seeding with Deployment:A should surface B (shares locatedIn AND
	// operatedBy) above C (shares only locatedIn).
	recs := rec.Recommend([]string{"Deployment:A"}, "", 5)
	if len(recs) < 2 {
		t.Fatalf("recs = %+v", recs)
	}
	if recs[0].Title != "Deployment:B" {
		t.Errorf("first = %+v", recs[0])
	}
	var foundC bool
	for _, r := range recs {
		if r.Title == "Deployment:C" {
			foundC = true
			if r.Score >= recs[0].Score {
				t.Error("C should score below B")
			}
		}
	}
	if !foundC {
		t.Error("Deployment:C missing")
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	_, rec := fixture(t)
	if rec.Recommend(nil, "", 5) != nil {
		t.Error("empty seeds should return nil")
	}
	if rec.Recommend([]string{"Sensor:S1"}, "", 0) != nil {
		t.Error("k=0 should return nil")
	}
	if rec.Recommend([]string{"Missing:Page"}, "", 5) != nil {
		t.Error("unknown seed should return nil")
	}
	// Pages with no annotations recommend nothing.
	if got := rec.Recommend([]string{"Unrelated"}, "", 5); got != nil {
		t.Errorf("annotation-less seed produced %v", got)
	}
	// k caps the result count.
	if got := rec.Recommend([]string{"Deployment:A"}, "", 1); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
}

func TestRecommendHonoursACL(t *testing.T) {
	repo, rec := fixture(t)
	repo.ACL.SetAnonymousAccess(false)
	repo.ACL.Grant("alice", wiki.NamespaceSensor)
	recs := rec.Recommend([]string{"Sensor:S1"}, "alice", 10)
	for _, r := range recs {
		if r.Title[:7] != "Sensor:" {
			t.Errorf("alice was recommended %s", r.Title)
		}
	}
	// Anonymous under a locked policy sees nothing.
	if got := rec.Recommend([]string{"Sensor:S1"}, "", 10); got != nil {
		t.Errorf("locked anon got %v", got)
	}
}
