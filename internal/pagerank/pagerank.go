// Package pagerank implements Section III of the paper: ranking metadata
// pages with a PageRank variant computed over the *double* linking structure
// of the Sensor Metadata Repository (ordinary page links plus semantic links
// from RDF properties), solved with a family of interchangeable methods —
// power iteration for the eigensystem (P″)ᵀx = x, and Jacobi, Gauss–Seidel,
// GMRES, Arnoldi and BiCGSTAB for the equivalent linear system
// (I − cPᵀ)x = kv (the paper's Eq. 5).
//
// All solvers expose identical convergence accounting (iterations, matrix–
// vector products, residual history, wall time) so that the evaluation in the
// paper's Fig. 3 can be regenerated: cmd/experiments and the root bench file
// drive every solver over the same synthetic web graphs.
package pagerank

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// Options configures a PageRank computation.
type Options struct {
	// Damping is the teleportation coefficient c of Eq. 2. The paper notes
	// 0.85 <= c < 1 in practice. Zero means the default 0.85.
	Damping float64
	// Tol is the convergence tolerance on the L1 PageRank residual
	// ‖x − (P″)ᵀx‖₁ of the normalized iterate. Zero means 1e-10.
	Tol float64
	// MaxIter bounds the number of iterations (matrix–vector products for
	// Krylov methods). Zero means 10 000.
	MaxIter int
	// Teleport is the probability distribution u over pages (Eq. 1). Nil
	// means uniform. It must sum to 1 and be non-negative.
	Teleport linalg.Vector
	// Restart is the Krylov restart length for GMRES and Arnoldi. Zero
	// means 30.
	Restart int
	// PageWeight and SemanticWeight control how the two linking structures
	// combine into one transition matrix. Both zero means 1 and 1.
	PageWeight, SemanticWeight float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10000
	}
	if o.Restart == 0 {
		o.Restart = 30
	}
	if o.PageWeight == 0 && o.SemanticWeight == 0 {
		o.PageWeight, o.SemanticWeight = 1, 1
	}
	return o
}

// Validate reports an error for out-of-range options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("pagerank: damping %v outside (0,1)", o.Damping)
	}
	if o.Tol <= 0 {
		return fmt.Errorf("pagerank: tolerance %v must be positive", o.Tol)
	}
	if o.PageWeight < 0 || o.SemanticWeight < 0 {
		return errors.New("pagerank: link weights must be non-negative")
	}
	return nil
}

// Matrix is the PageRank operator assembled from a link graph: the
// row-normalized transition matrix P stored transposed (so the hot kernel is
// a plain CSR MulVec), the dangling indicator d, and the teleport vector u.
// It implements the paper's Eq. 1–2 corrections implicitly: the dense rank-
// one terms duᵀ and euᵀ are applied on the fly rather than materialized.
type Matrix struct {
	N        int
	Pt       *linalg.CSR   // Pᵀ, n×n
	Dangling []bool        // d: true when the page has no out-links
	Teleport linalg.Vector // u
	Damping  float64       // c
}

// NewMatrix builds the PageRank operator from a directed link graph using
// the weights in opts: every page-link edge contributes opts.PageWeight and
// every semantic-link edge opts.SemanticWeight to the (from, to) transition
// weight before row normalization. This is the paper's double linking
// structure — pages without semantic attributes still rank via their page
// links, and vice versa.
func NewMatrix(g *graph.Directed, opts Options) (*Matrix, error) {
	return NewMatrixEdges(g.NumNodes(), g.Edges(), opts)
}

// NewMatrixEdges is NewMatrix over a link graph in integer form: n nodes
// and their typed edges grouped by From in ascending order, as
// graph.Directed.Edges lists them. Within one source, the weights of the
// edges to one target add up in edge order. The transposed matrix is laid
// out with a counting sort on the target, so each row's columns come out
// ascending without sorting.
func NewMatrixEdges(n int, edges []graph.Edge, opts Options) (*Matrix, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	u := opts.Teleport
	if u == nil {
		u = linalg.Uniform(n)
	}
	if len(u) != n {
		return nil, fmt.Errorf("pagerank: teleport vector length %d for %d nodes", len(u), n)
	}
	var sum float64
	for _, x := range u {
		if x < 0 {
			return nil, errors.New("pagerank: teleport vector has negative entries")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("pagerank: teleport vector sums to %v, want 1", sum)
	}

	// First pass: merge each source's edges per target. w[k] holds the
	// summed weight of (From, To) at the first edge k that carries it, and
	// 0 at the edges merged into it; first[To]-1 is that edge while its
	// source is current, so the scratch needs no reset between sources.
	w := make([]float64, len(edges))
	first := make([]int, n)
	rowSum := make([]float64, n)
	rows := make([]int, n+1)
	from := 0
	for k, e := range edges {
		if e.From < from || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("pagerank: edge %d (%d→%d) out of order or outside %d nodes", k, e.From, e.To, n)
		}
		from = e.From
		wt := opts.PageWeight
		if e.Kind == graph.SemanticLink {
			wt = opts.SemanticWeight
		}
		if wt == 0 {
			continue
		}
		rowSum[e.From] += wt
		if f := first[e.To] - 1; f >= 0 && edges[f].From == e.From {
			w[f] += wt
			continue
		}
		first[e.To] = k + 1
		w[k] = wt
		rows[e.To+1]++
	}
	for j := 0; j < n; j++ {
		rows[j+1] += rows[j]
	}

	// Second pass: place P[From][To] at (To, From) of Pᵀ. Sources ascend,
	// so every row's columns do too.
	nnz := rows[n]
	pt := &linalg.CSR{N: n, M: n, Rows: rows, Cols: make([]int, nnz), Vals: make([]float64, nnz)}
	next := first // reused as each row's fill cursor
	copy(next, rows[:n])
	for k, e := range edges {
		if w[k] == 0 {
			continue
		}
		p := next[e.To]
		next[e.To]++
		pt.Cols[p] = e.From
		pt.Vals[p] = w[k] / rowSum[e.From]
	}
	dangling := make([]bool, n)
	for i, s := range rowSum {
		dangling[i] = s == 0
	}

	return &Matrix{
		N:        n,
		Pt:       pt,
		Dangling: dangling,
		Teleport: u,
		Damping:  opts.Damping,
	}, nil
}

// danglingMass returns dᵀx.
func (m *Matrix) danglingMass(x linalg.Vector) float64 {
	var s float64
	for i, d := range m.Dangling {
		if d {
			s += x[i]
		}
	}
	return s
}

// ApplyGoogle computes dst = (P″)ᵀ·x, the full Google-matrix operator of
// Eq. 4: cPᵀx + c(dᵀx)u + (1−c)(eᵀx)u. One call is one "matrix–vector
// product" in the solver accounting.
func (m *Matrix) ApplyGoogle(dst, x linalg.Vector) {
	m.Pt.MulVec(dst, x)
	c := m.Damping
	coef := c*m.danglingMass(x) + (1-c)*x.Sum()
	dst.Scale(c)
	dst.AXPY(coef, m.Teleport)
}

// ApplySystem computes dst = (I − cPᵀ)·x, the left-hand side of the linear
// system Eq. 5.
func (m *Matrix) ApplySystem(dst, x linalg.Vector) {
	m.Pt.MulVec(dst, x)
	for i := range dst {
		dst[i] = x[i] - m.Damping*dst[i]
	}
}

// Residual returns ‖x − (P″)ᵀx‖₁ for an L1-normalized copy of x, the common
// convergence metric reported by every solver. scratch must have length N
// and is overwritten.
func (m *Matrix) Residual(x, scratch linalg.Vector) float64 {
	nrm := x.Norm1()
	if nrm == 0 {
		return math.Inf(1)
	}
	m.ApplyGoogle(scratch, x)
	var s float64
	for i := range x {
		s += math.Abs(x[i] - scratch[i])
	}
	return s / nrm
}

// Result is the outcome of a solver run.
type Result struct {
	Method     string
	Scores     linalg.Vector // L1-normalized PageRank vector
	Iterations int           // solver iterations (sweeps for stationary methods)
	MatVecs    int           // sparse matrix–vector products consumed
	Residuals  []float64     // per-iteration L1 PageRank residuals
	Converged  bool
	Elapsed    time.Duration
}

// FinalResidual returns the last recorded residual, or +Inf when none.
func (r *Result) FinalResidual() float64 {
	if len(r.Residuals) == 0 {
		return math.Inf(1)
	}
	return r.Residuals[len(r.Residuals)-1]
}

// Top returns the k highest-scoring node indexes in descending score order
// (ties broken by index for determinism).
func (r *Result) Top(k int) []int {
	idx := make([]int, len(r.Scores))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort is fine: k is small in every caller.
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			si, sj := r.Scores[idx[j]], r.Scores[idx[best]]
			if si > sj || (si == sj && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
