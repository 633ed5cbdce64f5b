package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/smr"
	"repro/internal/workload"
)

// referenceSolve is the solve the ranker ran before it kept the link graph
// itself: rebuild the graph from the whole corpus, build the matrix, seed
// Gauss–Seidel from prev by title. The incremental ranker must reproduce
// its scores bit for bit.
func referenceSolve(t *testing.T, g *graph.Directed, prev map[string]float64) map[string]float64 {
	t.Helper()
	scores := map[string]float64{}
	n := g.NumNodes()
	if n == 0 {
		return scores
	}
	m, err := pagerank.NewMatrix(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n)
	warm := false
	for i, id := range g.IDs() {
		if s, ok := prev[id]; ok && s > 0 {
			x0[i] = s
			warm = true
		} else {
			x0[i] = 1 / float64(n)
		}
	}
	var res *pagerank.Result
	if warm {
		res = pagerank.GaussSeidelFrom(m, pagerank.Options{}, x0)
	} else {
		res = pagerank.GaussSeidel(m, pagerank.Options{})
	}
	for i, id := range g.IDs() {
		scores[id] = res.Scores[i]
	}
	return scores
}

// checkAgainstLinkGraph compares the ranker's walk and matrix with the
// ones built from a fresh LinkGraph, field for field.
func checkAgainstLinkGraph(t *testing.T, r *Ranker, step string) {
	t.Helper()
	g := r.repo.LinkGraph()
	r.mu.Lock()
	order, edges := r.orderLocked()
	titles := make([]string, len(order))
	for p, id := range order {
		titles[p] = r.titles[id]
	}
	r.mu.Unlock()
	if !reflect.DeepEqual(titles, g.IDs()) && (len(titles) > 0 || g.NumNodes() > 0) {
		t.Fatalf("%s: node order\n got %v\nwant %v", step, titles, g.IDs())
	}
	if g.NumNodes() == 0 {
		return
	}
	got, err := pagerank.NewMatrixEdges(len(order), edges, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pagerank.NewMatrix(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: matrix differs from NewMatrix(LinkGraph())", step)
	}
}

func sameBits(t *testing.T, step string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", step, len(got), len(want))
	}
	for title, w := range want {
		if g, ok := got[title]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: score of %s = %v, want %v", step, title, g, w)
		}
	}
}

// oracleStream drives one seeded write stream against the repository and
// checks the ranker after every Update: its node order and matrix equal
// NewMatrix(LinkGraph()), it solves exactly when the journal run moved a
// link (or the window was overrun), and its scores equal referenceSolve on
// the same previous scores bit for bit. Titles come from a small pool, so
// links often name pages that do not exist yet (red links that later
// become pages) and deletes leave referenced pages behind as red links.
func oracleStream(t *testing.T, repo *smr.Repository, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	var pool []string
	for i := 0; i < 12; i++ {
		pool = append(pool, fmt.Sprintf("Sensor:S%02d", i))
	}
	for i := 0; i < 5; i++ {
		pool = append(pool, fmt.Sprintf("Deployment:D%d", i), fmt.Sprintf("Topic %d", i))
	}
	pool = append(pool, "Fieldsite:Davos", "Fieldsite:Wannengrat")
	// A few non-page titles are linked too; pages in the pool may already
	// exist from the corpus.
	pool = append(pool, repo.Wiki.Titles()[:min(6, len(repo.Wiki.Titles()))]...)
	pick := func() string { return pool[rng.Intn(len(pool))] }
	// links renders a random reference list: page links, semantic links
	// (title-valued annotations), literal annotations, repeats and
	// self-references all occur.
	links := func(self string) []string {
		var refs []string
		for k := rng.Intn(6); k > 0; k-- {
			target := pick()
			if rng.Intn(8) == 0 {
				target = self
			}
			switch rng.Intn(4) {
			case 0:
				refs = append(refs, "[["+target+"]]")
			case 1:
				if strings.Contains(target, ":") {
					refs = append(refs, "[[partOf::"+target+"]]")
				} else {
					refs = append(refs, "[["+target+"]]")
				}
			case 2:
				refs = append(refs, fmt.Sprintf("[[samplingRate::%d]]", rng.Intn(50)))
			default:
				if len(refs) > 0 { // a repeated reference
					refs = append(refs, refs[rng.Intn(len(refs))])
				}
			}
		}
		return refs
	}
	current := map[string][]string{} // title -> references of its latest revision

	r := New(repo)
	var prev map[string]float64
	solvedOnce := false
	for step := 0; step < steps; step++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			title := pick()
			var err error
			switch op := rng.Intn(10); {
			case op < 4: // write with fresh links
				current[title] = links(title)
				_, err = repo.PutPage(title, "t", strings.Join(current[title], " ")+" prose", "")
			case op < 5: // same links, new prose: no link moves
				_, err = repo.PutPage(title, "t", strings.Join(current[title], " ")+fmt.Sprintf(" prose %d", step), "")
			case op < 6: // same links, reversed: same fingerprint, new first-reference order
				refs := append([]string(nil), current[title]...)
				for i, j := 0, len(refs)-1; i < j; i, j = i+1, j-1 {
					refs[i], refs[j] = refs[j], refs[i]
				}
				current[title] = refs
				_, err = repo.PutPage(title, "t", strings.Join(refs, " ")+" prose", "")
			case op < 8: // delete: referenced pages become red links
				delete(current, title)
				_, err = repo.DeletePage(title)
			default: // tag only
				if _, ok := repo.Wiki.Get(title); ok {
					err = repo.AddTag(title, fmt.Sprintf("tag%d", rng.Intn(4)), "u")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("seed %d step %d", seed, step)
		if step%7 == 6 {
			// Full recompute: rescan and cold solve.
			if err := r.Rebuild(); err != nil {
				t.Fatal(err)
			}
			checkAgainstLinkGraph(t, r, name+" (rebuild)")
			prev = referenceSolve(t, repo.LinkGraph(), nil)
			sameBits(t, name+" (rebuild)", r.Scores(), prev)
			solvedOnce = true
			continue
		}
		if step%11 == 10 {
			// Overrun the journal window: the next Update rescans.
			repo.Journal().TrimTo(repo.LastSeq())
		}
		changes, ok := repo.Changes(r.Seq())
		wantSolve := !ok || !solvedOnce
		for _, c := range changes {
			wantSolve = wantSolve || c.LinksChanged
		}
		solve, err := r.Update()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstLinkGraph(t, r, name)
		if (solve != Skipped) != wantSolve {
			t.Fatalf("%s: Update = %v, want a solve: %v", name, solve, wantSolve)
		}
		if solve == Cold && solvedOnce || solve == Warm && !solvedOnce {
			t.Fatalf("%s: Update = %v after solvedOnce = %v", name, solve, solvedOnce)
		}
		if solve != Skipped {
			prev = referenceSolve(t, repo.LinkGraph(), prev)
			solvedOnce = true
		}
		sameBits(t, name, r.Scores(), prev)
	}
}

// TestRankerMatchesLinkGraphRebuild is the oracle for the journal-fed
// link state: after every Update of seeded write streams (link moves,
// reorders, deletes, red links becoming pages and pages deleted into red
// links, tag-only and prose-only writes, journal overruns and full
// rebuilds) the ranker's node order and matrix equal the ones built from
// LinkGraph, and its scores are bit-identical to the full-rebuild solve on
// the same previous scores.
func TestRankerMatchesLinkGraphRebuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		repo, err := smr.New()
		if err != nil {
			t.Fatal(err)
		}
		if seed > 3 {
			// Over a generated corpus, so the walk interleaves many pages.
			opts := workload.CorpusOptions{Sites: 3, Deployments: 8, Sensors: 60, Seed: seed}
			if _, err := workload.BuildCorpus(repo, opts); err != nil {
				t.Fatal(err)
			}
		}
		oracleStream(t, repo, seed, 80)
	}
}

// TestUpdateFollowsJournalLinkChanges pins when Update solves, from the
// journal's own LinksChanged: a new page (even without links) and a link
// move solve; prose-only and tag-only writes skip; a delete solves; an
// overrun journal solves from a rescan.
func TestUpdateFollowsJournalLinkChanges(t *testing.T) {
	repo := fixtureRepo(t)
	r := solved(t, repo)
	step := func(name string, want Solve, write func() error) {
		t.Helper()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if got, err := r.Update(); err != nil || got != want {
			t.Fatalf("%s: Update = %v, %v; want %v", name, got, err, want)
		}
		checkAgainstLinkGraph(t, r, name)
	}
	put := func(title, text string) func() error {
		return func() error { _, err := repo.PutPage(title, "t", text, ""); return err }
	}
	step("new page without links", Warm, put("Sensor:U1", "plain prose"))
	step("prose-only rewrite", Skipped, put("Sensor:U1", "different prose"))
	step("tag only", Skipped, func() error { return repo.AddTag("Sensor:U1", "alpine", "u") })
	step("link added", Warm, put("Sensor:U1", "now part of [[Deployment:A]]"))
	step("link moved", Warm, put("Sensor:U1", "now part of [[Deployment:B]]"))
	step("delete", Warm, func() error { _, err := repo.DeletePage("Deployment:A"); return err })
	step("idle", Skipped, func() error { return nil })
	step("overrun", Warm, func() error {
		if _, err := repo.PutPage("Sensor:U3", "t", "x", ""); err != nil {
			return err
		}
		repo.Journal().TrimTo(repo.LastSeq())
		_, err := repo.PutPage("Sensor:U3", "t", "y [[Sensor:U1]]", "")
		repo.Journal().TrimTo(repo.LastSeq())
		return err
	})
	if r.Seq() != repo.LastSeq() {
		t.Errorf("ranker seq = %d, repo seq = %d", r.Seq(), repo.LastSeq())
	}
}
