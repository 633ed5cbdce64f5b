package main

import (
	"fmt"
	"time"

	sensormeta "repro"
	"repro/internal/explain"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/tagging"
)

// tracer records the traced run: the duration of each call at a layer
// boundary, plus the counts taken at the same boundaries.
type tracer struct {
	dur map[string]samples // boundary name → durations
	sum map[string]float64 // count name → total
	// self holds per-request differences: a round trip minus the System
	// call behind it, a combined query minus its parts run alone.
	self map[string]samples
}

func newTracer() *tracer {
	return &tracer{dur: map[string]samples{}, sum: map[string]float64{}, self: map[string]samples{}}
}

// time runs f and records its duration under name.
func (t *tracer) time(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.dur[name] = append(t.dur[name], d)
	return d, err
}

// request sends one request traced: the round trip, then the System call
// behind it on the same request. A tag cloud's System call goes first
// instead, so it meets the cloud cache as the round trip would have; the
// round trip that follows is then always served from the cache.
func (t *tracer) request(b *bench, o *op) {
	if o.class == clTagCloud {
		if err := t.cloud(b.in.sys); err != nil {
			b.fail(fmt.Errorf("traced %s: %w", o.class, err))
		}
	}
	r, d, ok := b.send(o)
	if !ok {
		return
	}
	t.system(b, o, d)
	b.verify(r)
}

// cloud times System.TagCloud and counts whether the cloud cache served it.
func (t *tracer) cloud(sys *sensormeta.System) error {
	before := sys.Tags.Stats()
	_, err := t.time("sensormeta.System.TagCloud", func() error {
		_, e := sys.TagCloud(tagging.CloudOptions{UsePivot: true, MinFrequency: 20})
		return e
	})
	after := sys.Tags.Stats()
	t.sum["tagging.cache_hits"] += float64(after.CacheHits - before.CacheHits)
	t.sum["tagging.cache_misses"] += float64(after.CacheMisses - before.CacheMisses)
	return err
}

// system times the System method a request's handler calls, and the
// counts that go with it. rt is the request's round trip.
func (t *tracer) system(b *bench, o *op, rt time.Duration) {
	sys := b.in.sys
	var err error
	switch o.class {
	case clQuery, clVisible:
		var res *search.ExecResult
		var d time.Duration
		d, err = t.time("sensormeta.System.Query", func() (e error) {
			res, e = sys.Query(o.expr, o.opts)
			return e
		})
		if err == nil {
			t.self["server.query"] = append(t.self["server.query"], rt-d)
			t.sum["search.matched"] += float64(res.Matched)
			t.sum["search.results"] += float64(len(res.Results))
		}
	case clAutocomplete:
		_, err = t.time("sensormeta.System.Autocomplete", func() error {
			sys.Autocomplete(o.prefix, 10)
			return nil
		})
	case clSQL:
		before := sys.PlannerStats().FallbackScans
		_, err = t.time("sensormeta.System.QuerySQL", func() error {
			_, e := sys.QuerySQL(o.sql)
			return e
		})
		t.sum["relational.fallback_scans"] += float64(sys.PlannerStats().FallbackScans - before)
		t.sum["relational.queries"]++
		if err == nil {
			var rs *sensormeta.SQLResult
			var plan *explain.Node
			rs, plan, err = sys.QuerySQLExplained(o.sql)
			if err == nil {
				t.sum["relational.rows_examined"] += float64(actRows(plan))
				t.sum["relational.result_rows"] += float64(len(rs.Rows))
			}
		}
	case clSPARQL:
		before := readRuntime().allocBytes
		_, err = t.time("sensormeta.System.QuerySPARQL", func() error {
			_, e := sys.QuerySPARQL(o.sparql)
			return e
		})
		t.sum["sparql.alloc_bytes"] += float64(readRuntime().allocBytes - before)
		t.sum["sparql.queries"]++
	case clCombined:
		err = t.combined(sys, o)
	}
	if err != nil {
		b.fail(fmt.Errorf("traced %s: %w", o.class, err))
	}
}

// combined times System.QueryCombined, then its SPARQL, SQL and keyword
// parts run alone; the difference is the combined layer's own time.
func (t *tracer) combined(sys *sensormeta.System, o *op) error {
	total, err := t.time("sensormeta.System.QueryCombined", func() error {
		_, e := sys.QueryCombined(o.comb)
		return e
	})
	if err != nil {
		return err
	}
	parts := total
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"combined.part.sparql", func() error { _, e := sys.QuerySPARQL(o.comb.SPARQL); return e }},
		{"combined.part.sql", func() error { _, e := sys.QuerySQL(o.comb.SQL); return e }},
		{"combined.part.keyword", func() error { _, e := sys.Search(search.Query{Keywords: o.comb.Keywords}); return e }},
	} {
		d, err := t.time(p.name, p.run)
		if err != nil {
			return err
		}
		parts -= d
	}
	t.self["core.combined"] = append(t.self["core.combined"], parts)
	return nil
}

// actRows sums the actual row counts of every node of a plan tree.
func actRows(n *explain.Node) int {
	if n == nil {
		return 0
	}
	s := n.Act
	for _, c := range n.Children {
		s += actRows(c)
	}
	return s
}

// putPages writes one batch through System.PutPages and counts the WAL
// syncs it took.
func (t *tracer) putPages(sys *sensormeta.System, batch []smr.PageWrite) ([]int, error) {
	syncs := sys.Repo.WALStats().Syncs
	var pages []int
	_, err := t.time("sensormeta.System.PutPages", func() error {
		ps, e := sys.PutPages(batch)
		for _, p := range ps {
			pages = append(pages, len(p.Revisions))
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	if len(pages) != len(batch) {
		return nil, fmt.Errorf("PutPages applied %d of %d pages", len(pages), len(batch))
	}
	t.sum["wal.syncs"] += float64(sys.Repo.WALStats().Syncs - syncs)
	t.sum["wal.batches"]++
	return pages, nil
}

// refresh runs System.Refresh and accumulates the consumers' work.
func (t *tracer) refresh(sys *sensormeta.System) error {
	before := sys.Stats()
	_, err := t.time("sensormeta.System.Refresh", sys.Refresh)
	if err != nil {
		return err
	}
	after := sys.Stats()
	t.sum["refreshes"]++
	t.sum["search.pages_applied"] += float64(after.PagesApplied - before.PagesApplied)
	t.sum["ranking.warm"] += float64(after.PageRankWarm - before.PageRankWarm)
	t.sum["ranking.skipped"] += float64(after.PageRankSkipped - before.PageRankSkipped)
	t.sum["recommend.pages_applied"] += float64(after.Recommender.PagesApplied - before.Recommender.PagesApplied)
	return nil
}

// cycle runs one ingest cycle traced. The write and the refresh go to the
// System directly — a write cannot be repeated without changing the state
// — and the reads go over HTTP with the System call timed after each.
func (t *tracer) cycle(b *bench, cyc *ingestCycle) {
	sys := b.in.sys
	b.attempted += 2
	start := time.Now()
	revs, err := t.putPages(sys, cyc.write.writes)
	if err == nil {
		for i, w := range cyc.write.writes {
			if revs[i] != b.gen.written[w.Title] {
				err = fmt.Errorf("traced write: %s at revision %d, want %d", w.Title, revs[i], b.gen.written[w.Title])
				break
			}
		}
	}
	if err == nil {
		err = t.refresh(sys)
	}
	// The write and the refresh stand in for their requests in the traced
	// half's request time.
	b.busy += time.Since(start)
	if err != nil {
		b.fail(err)
		return
	}
	t.request(b, &cyc.visible)
	for i := range cyc.reads {
		t.request(b, &cyc.reads[i])
	}
}

// probeIdle runs, for every layer the workload did not reach in the traced
// phase, a few fixed requests of the class that reaches it, so every
// per-layer time is measured on every workload. On a workload that does
// not use a layer, its number is the layer's cost at that workload's end
// state and is expected to stay flat under changes to other layers.
func (t *tracer) probeIdle(b *bench) error {
	search, err := searchStream(b.opt.seed)
	if err != nil {
		return err
	}
	pool := append(search, structuredStream(b.opt.seed)...)
	for _, cl := range []string{clQuery, clAutocomplete, clChart, clTagCloud, clSQL, clSPARQL, clCombined} {
		if len(b.lat[cl]) > 0 {
			continue
		}
		n := 0
		for i := range pool {
			if pool[i].class == cl && n < 5 {
				t.request(b, &pool[i])
				n++
			}
		}
	}
	if len(t.dur["sensormeta.System.Refresh"]) == 0 {
		for i := 0; i < 5; i++ {
			if err := t.refresh(b.in.sys); err != nil {
				return err
			}
		}
	}
	return nil
}
