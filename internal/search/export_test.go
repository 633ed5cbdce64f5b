package search

// WithoutPruning and WithoutFacetIndex expose the executor's reference
// constructions to the external-package benchmarks (bench_test.go), which
// build their corpus with internal/workload and so cannot live in package
// search itself.
func WithoutPruning(o ExecOptions) ExecOptions { o.noPrune = true; return o }

func WithoutFacetIndex(o ExecOptions) ExecOptions { o.noFacetIndex = true; return o }
