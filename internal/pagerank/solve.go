package pagerank

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Solver is a PageRank method with the uniform Fig. 3 accounting.
type Solver func(*Matrix, Options) *Result

// Methods lists every implemented solver keyed by the name used in the
// paper's evaluation.
var Methods = map[string]Solver{
	"Power":        Power,
	"Jacobi":       Jacobi,
	"Gauss-Seidel": GaussSeidel,
	"GMRES":        GMRES,
	"Arnoldi":      Arnoldi,
	"BiCGSTAB":     BiCGSTAB,
}

// MethodNames returns the solver names in a fixed presentation order
// (the order used in the regenerated Fig. 3 tables).
func MethodNames() []string {
	names := make([]string, 0, len(Methods))
	for n := range Methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Solve runs the named solver over the link graph. It is the high-level
// entry point used by the ranking module and the CLIs.
func Solve(g *graph.Directed, method string, opts Options) (*Result, error) {
	solver, ok := Methods[method]
	if !ok {
		return nil, fmt.Errorf("pagerank: unknown method %q (have %v)", method, MethodNames())
	}
	m, err := NewMatrix(g, opts)
	if err != nil {
		return nil, err
	}
	return solver(m, opts), nil
}

// Compare runs every solver on the same operator and returns results in
// MethodNames order. It is the engine behind the regenerated Fig. 3.
func Compare(g *graph.Directed, opts Options) ([]*Result, error) {
	m, err := NewMatrix(g, opts)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, name := range MethodNames() {
		out = append(out, Methods[name](m, opts))
	}
	return out, nil
}
