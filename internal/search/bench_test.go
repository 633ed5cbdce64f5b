package search_test

import (
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/workload"
)

// benchCorpus is the 5k-sensor workload corpus with its PageRank scores,
// built once per test binary; the benchmarks only read it.
var benchCorpus = sync.OnceValues(func() (*smr.Repository, map[string]float64) {
	repo, err := smr.New()
	if err != nil {
		panic(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = 5000
	if _, err := workload.BuildCorpus(repo, opts); err != nil {
		panic(err)
	}
	rk := ranking.New(repo)
	if err := rk.Rebuild(); err != nil {
		panic(err)
	}
	return repo, rk.Scores()
})

// selectiveDeployment returns the deployment the first sensor is part of:
// a property filter on it matches well under 5% of the corpus.
func selectiveDeployment(b *testing.B, repo *smr.Repository) string {
	b.Helper()
	sensors := repo.Wiki.PagesInNamespace("Sensor")
	page, ok := repo.Wiki.Get(sensors[0])
	if !ok {
		b.Fatal("missing sensor page")
	}
	return page.PropertyValues("partOf")[0]
}

// BenchmarkFacetIndexVsStream measures filter-only facet counting: the
// streaming baseline enumerates the pruned candidate set and evaluates
// every page (fetch + query.Eval + PropertyValues accumulation), the index
// path answers by posting-set arithmetic alone (exact match set ∩
// per-raw-value postings, occurrence counts summed) — no page is fetched
// or evaluated. Two query shapes: a broad namespace scope (counts over
// most of the corpus) and a selective property filter.
func BenchmarkFacetIndexVsStream(b *testing.B) {
	repo, ranks := benchCorpus()
	eng := search.NewEngine(repo)
	eng.SetRanks(ranks)
	props := []string{"measures", "status"}
	shapes := []struct {
		name string
		expr query.Expr
	}{
		{"broad", query.Namespace{Name: "Sensor"}},
		{"selective", query.Property{Name: "partof", Op: query.OpEq, Value: selectiveDeployment(b, repo)}},
	}
	for _, shape := range shapes {
		indexed := search.ExecOptions{CountOnly: true, Facets: props}
		want, err := eng.Execute(shape.expr, indexed)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			opts search.ExecOptions
		}{{"stream", search.WithoutFacetIndex(indexed)}, {"indexed", indexed}} {
			b.Run(shape.name+"/"+c.name, func(b *testing.B) {
				b.ReportMetric(float64(want.Matched), "matches")
				for i := 0; i < b.N; i++ {
					res, err := eng.Execute(shape.expr, c.opts)
					if err != nil {
						b.Fatal(err)
					}
					if res.Matched != want.Matched {
						b.Fatalf("matched %d, want %d", res.Matched, want.Matched)
					}
				}
			})
		}
	}
}

// BenchmarkFilterPushdown measures the executor's candidate pruning on a
// selective-filter keyword query (the filter matches well under 5% of the
// corpus): the score-then-filter baseline scores every "sensor" posting
// before filtering, the pruned path intersects the (property, value)
// posting set first and scores keywords only over the survivors.
func BenchmarkFilterPushdown(b *testing.B) {
	repo, ranks := benchCorpus()
	sensors := len(repo.Wiki.PagesInNamespace("Sensor"))
	expr := query.And{Children: []query.Expr{
		query.Keyword{Text: "sensor", Any: true},
		query.Property{Name: "partof", Op: query.OpEq, Value: selectiveDeployment(b, repo)},
	}}
	eng := search.NewEngine(repo)
	eng.SetRanks(ranks)
	sel, err := eng.Execute(expr, search.ExecOptions{CountOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	if hi := sensors / 20; sel.Matched == 0 || sel.Matched > hi {
		b.Fatalf("filter matches %d of %d sensors; want selective (<%d)", sel.Matched, sensors, hi)
	}
	pruned := search.ExecOptions{Limit: 20}
	for _, c := range []struct {
		name string
		opts search.ExecOptions
	}{{"score-then-filter", search.WithoutPruning(pruned)}, {"pruned", pruned}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(sel.Matched), "matches")
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(expr, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Matched != sel.Matched {
					b.Fatalf("matched %d, want %d", res.Matched, sel.Matched)
				}
			}
		})
	}
}
