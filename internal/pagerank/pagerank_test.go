package pagerank

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// twoNodeGraph is a→b with b dangling. The analytic PageRank at c = 0.85 is
// x_a = 1/2.85, x_b = 1.85/2.85.
func twoNodeGraph() *graph.Directed {
	g := graph.NewDirected()
	g.AddEdge("a", "b", graph.PageLink)
	return g
}

func randomGraph(n, edges int, seed int64) *graph.Directed {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewDirected()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "n" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('a'+i/260%26))
		g.AddNode(ids[i])
	}
	for e := 0; e < edges; e++ {
		kind := graph.PageLink
		if rng.Intn(2) == 0 {
			kind = graph.SemanticLink
		}
		g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], kind)
	}
	return g
}

func TestAnalyticTwoNode(t *testing.T) {
	for name, solver := range Methods {
		m, err := NewMatrix(twoNodeGraph(), Options{})
		if err != nil {
			t.Fatalf("%s: NewMatrix: %v", name, err)
		}
		res := solver(m, Options{Tol: 1e-12})
		if !res.Converged {
			t.Errorf("%s did not converge on the two-node graph", name)
			continue
		}
		wantA, wantB := 1/2.85, 1.85/2.85
		if math.Abs(res.Scores[0]-wantA) > 1e-8 || math.Abs(res.Scores[1]-wantB) > 1e-8 {
			t.Errorf("%s: scores = %v, want [%v %v]", name, res.Scores, wantA, wantB)
		}
	}
}

func TestScoresSumToOneAndNonNegative(t *testing.T) {
	g := randomGraph(60, 240, 1)
	for name, solver := range Methods {
		m, err := NewMatrix(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := solver(m, Options{})
		if math.Abs(res.Scores.Sum()-1) > 1e-8 {
			t.Errorf("%s: scores sum to %v", name, res.Scores.Sum())
		}
		for i, s := range res.Scores {
			if s < -1e-12 {
				t.Errorf("%s: negative score %v at %d", name, s, i)
			}
		}
	}
}

func TestAllSolversAgree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(40, 150, seed)
		results, err := Compare(g, Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		ref := results[0]
		for _, r := range results[1:] {
			if !r.Converged {
				t.Errorf("seed %d: %s did not converge", seed, r.Method)
				continue
			}
			if d := linalg.Diff1(ref.Scores, r.Scores); d > 1e-7 {
				t.Errorf("seed %d: %s differs from %s by %v in L1", seed, r.Method, ref.Method, d)
			}
		}
	}
}

func TestFinalResidualSmall(t *testing.T) {
	g := randomGraph(50, 200, 9)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scratch := linalg.NewVector(m.N)
	for name, solver := range Methods {
		res := solver(m, Options{Tol: 1e-11})
		if r := m.Residual(res.Scores, scratch); r > 1e-8 {
			t.Errorf("%s: true PageRank residual %v after convergence", name, r)
		}
	}
}

func TestDanglingNodesHandled(t *testing.T) {
	// Every node dangling: PageRank must equal the teleport distribution.
	g := graph.NewDirected()
	g.AddNode("a")
	g.AddNode("b")
	g.AddNode("c")
	res, err := Solve(g, "Power", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.Abs(s-1.0/3) > 1e-9 {
			t.Errorf("all-dangling graph: score[%d] = %v, want 1/3", i, s)
		}
	}
}

func TestCustomTeleport(t *testing.T) {
	g := twoNodeGraph()
	u := linalg.Vector{0.9, 0.1}
	res, err := Solve(g, "Gauss-Seidel", Options{Teleport: u, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Verify against power iteration with the same personalization.
	ref, err := Solve(g, "Power", Options{Teleport: u, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Diff1(res.Scores, ref.Scores); d > 1e-8 {
		t.Errorf("personalized GS and Power differ by %v", d)
	}
	// A page teleported to 9x more often must not rank lower than under
	// the uniform vector.
	uni, _ := Solve(g, "Power", Options{Tol: 1e-12})
	if res.Scores[0] <= uni.Scores[0] {
		t.Errorf("personalization toward a did not raise a's score: %v vs %v", res.Scores[0], uni.Scores[0])
	}
}

func TestTeleportValidation(t *testing.T) {
	g := twoNodeGraph()
	if _, err := Solve(g, "Power", Options{Teleport: linalg.Vector{0.5, 0.2}}); err == nil {
		t.Error("teleport not summing to 1 accepted")
	}
	if _, err := Solve(g, "Power", Options{Teleport: linalg.Vector{1.5, -0.5}}); err == nil {
		t.Error("negative teleport accepted")
	}
	if _, err := Solve(g, "Power", Options{Teleport: linalg.Vector{1}}); err == nil {
		t.Error("teleport of wrong length accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	g := twoNodeGraph()
	if _, err := Solve(g, "Power", Options{Damping: 1.5}); err == nil {
		t.Error("damping > 1 accepted")
	}
	if _, err := Solve(g, "Power", Options{PageWeight: -1, SemanticWeight: 1}); err == nil {
		t.Error("negative link weight accepted")
	}
	if _, err := Solve(g, "NoSuchMethod", Options{}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Solve(graph.NewDirected(), "Power", Options{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestDoubleLinkWeighting(t *testing.T) {
	// Graph where semantic links point at "hub" and page links at "other".
	g := graph.NewDirected()
	g.AddEdge("x", "hub", graph.SemanticLink)
	g.AddEdge("y", "hub", graph.SemanticLink)
	g.AddEdge("x", "other", graph.PageLink)
	g.AddEdge("y", "other", graph.PageLink)

	semHeavy, err := Solve(g, "Power", Options{PageWeight: 0.1, SemanticWeight: 10, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	pageHeavy, err := Solve(g, "Power", Options{PageWeight: 10, SemanticWeight: 0.1, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := g.Index("hub")
	oi, _ := g.Index("other")
	if semHeavy.Scores[hi] <= semHeavy.Scores[oi] {
		t.Error("semantic-heavy weighting did not favour the semantic hub")
	}
	if pageHeavy.Scores[oi] <= pageHeavy.Scores[hi] {
		t.Error("page-heavy weighting did not favour the page target")
	}
}

func TestSemanticOnlyEquivalence(t *testing.T) {
	// With PageWeight=0 the result must match a graph holding only the
	// semantic edges.
	full := graph.NewDirected()
	full.AddEdge("a", "b", graph.SemanticLink)
	full.AddEdge("b", "c", graph.SemanticLink)
	full.AddEdge("a", "c", graph.PageLink) // should be ignored
	full.AddEdge("c", "a", graph.SemanticLink)

	semOnly := graph.NewDirected()
	semOnly.AddEdge("a", "b", graph.SemanticLink)
	semOnly.AddEdge("b", "c", graph.SemanticLink)
	semOnly.AddNode("c")
	semOnly.AddEdge("c", "a", graph.SemanticLink)

	// The tiny epsilon stands in for zero because 0,0 means "defaults".
	r1, err := Solve(full, "Power", Options{PageWeight: 1e-30, SemanticWeight: 1, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(semOnly, "Power", Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Diff1(r1.Scores, r2.Scores); d > 1e-6 {
		t.Errorf("semantic-only weighting differs from semantic-only graph by %v", d)
	}
}

func TestGMRESSmallRestart(t *testing.T) {
	// A restart length far below the Krylov dimension needed for one-shot
	// convergence must still converge through restarts.
	g := randomGraph(120, 600, 50)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := Power(m, Options{Tol: 1e-12})
	for _, restart := range []int{3, 5, 10} {
		res := GMRES(m, Options{Tol: 1e-11, Restart: restart})
		if !res.Converged {
			t.Errorf("GMRES(restart=%d) did not converge", restart)
			continue
		}
		if d := linalg.Diff1(ref.Scores, res.Scores); d > 1e-7 {
			t.Errorf("GMRES(restart=%d) differs from Power by %v", restart, d)
		}
	}
}

func TestArnoldiSmallRestart(t *testing.T) {
	g := randomGraph(80, 400, 51)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := Power(m, Options{Tol: 1e-12})
	res := Arnoldi(m, Options{Tol: 1e-10, Restart: 6})
	if !res.Converged {
		t.Fatal("Arnoldi(restart=6) did not converge")
	}
	if d := linalg.Diff1(ref.Scores, res.Scores); d > 1e-7 {
		t.Errorf("Arnoldi(restart=6) differs from Power by %v", d)
	}
}

func TestResultTop(t *testing.T) {
	r := &Result{Scores: linalg.Vector{0.1, 0.5, 0.2, 0.2}}
	top := r.Top(3)
	if top[0] != 1 {
		t.Errorf("Top[0] = %d, want 1", top[0])
	}
	// Tie between 2 and 3 broken by index.
	if top[1] != 2 || top[2] != 3 {
		t.Errorf("Top = %v, want [1 2 3]", top)
	}
	if got := len(r.Top(99)); got != 4 {
		t.Errorf("Top(99) returned %d items", got)
	}
}

func TestResidualHistoryMonotoneForPower(t *testing.T) {
	g := randomGraph(80, 400, 4)
	res, err := Solve(g, "Power", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Power iteration on a c-damped operator contracts the L1 error by c
	// per step; allow slack for the first iterations.
	for i := 5; i < len(res.Residuals); i++ {
		if res.Residuals[i] > res.Residuals[i-1]*1.05 {
			t.Errorf("power residual grew at %d: %v -> %v", i, res.Residuals[i-1], res.Residuals[i])
			break
		}
	}
	if res.FinalResidual() >= res.Residuals[0] {
		t.Error("final residual not below initial")
	}
}

func TestGaussSeidelFasterThanJacobiInIterations(t *testing.T) {
	// The paper's Fig. 3 headline: GS converges in fewer sweeps. This is a
	// structural property (GS uses fresh values within a sweep), so assert
	// it on several random graphs.
	for seed := int64(10); seed < 14; seed++ {
		g := randomGraph(100, 500, seed)
		m, err := NewMatrix(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gs := GaussSeidel(m, Options{})
		jac := Jacobi(m, Options{})
		if !gs.Converged || !jac.Converged {
			t.Fatalf("seed %d: convergence failure gs=%v jac=%v", seed, gs.Converged, jac.Converged)
		}
		if gs.Iterations > jac.Iterations {
			t.Errorf("seed %d: GS took %d sweeps, Jacobi %d", seed, gs.Iterations, jac.Iterations)
		}
	}
}

func TestMatrixIsColumnStochasticOnNonDangling(t *testing.T) {
	g := randomGraph(30, 90, 2)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Column i of Pᵀ (= row i of P) must sum to 1 for non-dangling i.
	colSums := make([]float64, m.Pt.M)
	for k, j := range m.Pt.Cols {
		colSums[j] += m.Pt.Vals[k]
	}
	for i, s := range colSums {
		if m.Dangling[i] {
			if s != 0 {
				t.Errorf("dangling node %d has transition mass %v", i, s)
			}
			continue
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("node %d: out-transition mass %v, want 1", i, s)
		}
	}
}

func TestApplyGooglePreservesMass(t *testing.T) {
	g := randomGraph(25, 70, 8)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := linalg.NewVector(m.N)
	for i := range x {
		x[i] = rng.Float64()
	}
	x.Normalize1()
	y := linalg.NewVector(m.N)
	m.ApplyGoogle(y, x)
	if math.Abs(y.Sum()-1) > 1e-10 {
		t.Errorf("Google operator lost probability mass: sum %v", y.Sum())
	}
}

func TestMethodNamesStable(t *testing.T) {
	names := MethodNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 methods, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("MethodNames not sorted")
		}
	}
}

func TestGaussSeidelWarmStart(t *testing.T) {
	// A warm start from the converged solution of a slightly perturbed
	// graph must need far fewer sweeps than a cold start.
	g := randomGraph(400, 2400, 40)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := GaussSeidel(m, Options{})
	if !cold.Converged {
		t.Fatal("cold start did not converge")
	}

	// Perturb: the same graph plus a few extra edges.
	g.AddEdge("nA0a", "nB0a", 0)
	g.AddEdge("nC0a", "nD0a", 0)
	m2, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := GaussSeidelFrom(m2, Options{}, cold.Scores)
	if !warm.Converged {
		t.Fatal("warm start did not converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d sweeps, cold %d", warm.Iterations, cold.Iterations)
	}
	// Same answer as a cold solve of the perturbed system.
	cold2 := GaussSeidel(m2, Options{})
	if d := linalg.Diff1(warm.Scores, cold2.Scores); d > 1e-8 {
		t.Errorf("warm and cold solutions differ by %v", d)
	}
}

func TestGaussSeidelFromBadGuessFallsBack(t *testing.T) {
	g := randomGraph(30, 120, 41)
	m, err := NewMatrix(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length and zero-sum guesses both fall back to the cold path.
	for _, x0 := range []linalg.Vector{nil, linalg.NewVector(5), linalg.NewVector(30)} {
		res := GaussSeidelFrom(m, Options{}, x0)
		if !res.Converged {
			t.Errorf("fallback start did not converge for guess of length %d", len(x0))
		}
	}
}

// referenceMatrix is the map-based construction NewMatrix used before the
// counting-sort builder: per-source weight maps, row sums over them, and a
// coordinate list handed to linalg.NewCSR. The builder must reproduce it
// field for field whenever the row sums are exact (the default unit
// weights, or dyadic ones), where the map's iteration order cannot show.
func referenceMatrix(g *graph.Directed, opts Options) *Matrix {
	opts = opts.withDefaults()
	n := g.NumNodes()
	weights := make([]map[int]float64, n)
	for _, e := range g.Edges() {
		w := opts.PageWeight
		if e.Kind == graph.SemanticLink {
			w = opts.SemanticWeight
		}
		if w == 0 {
			continue
		}
		if weights[e.From] == nil {
			weights[e.From] = make(map[int]float64)
		}
		weights[e.From][e.To] += w
	}
	dangling := make([]bool, n)
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		var rowSum float64
		for _, w := range weights[i] {
			rowSum += w
		}
		if rowSum == 0 {
			dangling[i] = true
			continue
		}
		for j, w := range weights[i] {
			entries = append(entries, linalg.Entry{Row: j, Col: i, Val: w / rowSum})
		}
	}
	return &Matrix{N: n, Pt: linalg.NewCSR(n, n, entries), Dangling: dangling,
		Teleport: linalg.Uniform(n), Damping: opts.Damping}
}

// equalMatrix reports the first field where a and b differ, comparing
// floats bit for bit; "" when they are identical.
func equalMatrix(a, b *Matrix) string {
	switch {
	case a.N != b.N || a.Pt.N != b.Pt.N || a.Pt.M != b.Pt.M:
		return "shape"
	case !slices.Equal(a.Pt.Rows, b.Pt.Rows):
		return "Rows"
	case !slices.Equal(a.Pt.Cols, b.Pt.Cols):
		return "Cols"
	case !slices.EqualFunc(a.Pt.Vals, b.Pt.Vals, bitsEqual):
		return "Vals"
	case !slices.Equal(a.Dangling, b.Dangling):
		return "Dangling"
	case !slices.EqualFunc(a.Teleport, b.Teleport, bitsEqual):
		return "Teleport"
	case a.Damping != b.Damping:
		return "Damping"
	}
	return ""
}

func bitsEqual(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestNewMatrixMatchesReference: the counting-sort builder reproduces the
// map-based construction bit for bit on random double-link graphs with
// self-loops, parallel page+semantic edges, dangling nodes and a zero
// weight.
func TestNewMatrixMatchesReference(t *testing.T) {
	weights := []Options{{}, {PageWeight: 2, SemanticWeight: 0.5}, {PageWeight: 1, SemanticWeight: 0}, {PageWeight: 0, SemanticWeight: 3}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(1+rng.Intn(80), rng.Intn(400), seed)
		for _, opts := range weights {
			m, err := NewMatrix(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if diff := equalMatrix(m, referenceMatrix(g, opts)); diff != "" {
				t.Fatalf("seed %d, weights %+v: %s differs from the reference", seed, opts, diff)
			}
		}
	}
}

// TestNewMatrixEdgesRejectsBadEdges: edges out of source order or naming
// a node outside the graph are an error, not a corrupt matrix.
func TestNewMatrixEdgesRejectsBadEdges(t *testing.T) {
	for name, edges := range map[string][]graph.Edge{
		"unordered": {{From: 1, To: 0}, {From: 0, To: 1}},
		"from":      {{From: 2, To: 0}},
		"to":        {{From: 0, To: -1}},
	} {
		if _, err := NewMatrixEdges(2, edges, Options{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
