package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/workload"
)

// Request classes. Latency is only ever summarized within one class.
const (
	clQuery        = "query"        // POST /api/v1/query
	clAutocomplete = "autocomplete" // GET /api/autocomplete
	clChart        = "chart"        // GET /viz/bar.svg
	clMap          = "map"          // GET /viz/map.svg
	clTagCloud     = "tagcloud"     // GET /api/tagcloud
	clSQL          = "sql"          // GET /api/sql
	clSPARQL       = "sparql"       // GET /api/sparql
	clCombined     = "combined"     // POST /api/v1/combined
	clWrite        = "write"        // POST /api/v1/pages:batch
	clRefresh      = "refresh"      // POST /api/refresh
	clVisible      = "visible"      // POST /api/v1/query for the written revision
)

// readClasses are the classes read_p99_ms is taken over.
var readClasses = []string{clQuery, clAutocomplete, clChart, clMap, clTagCloud, clSQL, clSPARQL, clCombined, clVisible}

// op is one generated request together with what the oracle needs to
// compute the expected answer from the System at the same state.
type op struct {
	class  string
	method string
	path   string
	body   []byte

	expr   query.Expr         // clQuery, clVisible, clChart
	opts   search.ExecOptions // clQuery, clVisible
	legacy search.Query       // clMap: the URL-parameter query
	prop   string             // clChart
	prefix string             // clAutocomplete
	sql    string             // clSQL
	sparql string             // clSPARQL
	comb   core.CombinedQuery // clCombined
	writes []smr.PageWrite    // clWrite
	want   string             // clVisible: the title that must match
	shape  int                // clQuery: which BuildQueryMix shape

	// A static-stream request is checked once against the System in the
	// warm-up pass; its repeats are checked against that answer's digest.
	verified bool
	digest   [32]byte
}

// Cloud requests always carry the same options, so the tagging pipeline's
// one-entry cache serves them between refreshes.
const tagCloudPath = "/api/tagcloud?minfreq=20"

// querySet draws the advanced-search queries from workload.BuildQueryMix
// with a fixed share per query shape: the generator picks shapes at random,
// so it is asked for many and 24 of each of its five shapes are kept.
// The shapes' latencies lie in different bands; fixing their shares keeps
// the class median inside one band whatever the seed. Every other query of
// a shape asks for facets.
func querySet(seed int64) ([]op, error) {
	const perShape = 24
	buckets := make([][]search.Query, 5)
	for _, q := range workload.BuildQueryMix(workload.QueryMixOptions{Count: 1000, Seed: seed}) {
		s := queryShape(q)
		if len(buckets[s]) < perShape {
			buckets[s] = append(buckets[s], q)
		}
	}
	var out []op
	for i := 0; i < perShape; i++ {
		for s, b := range buckets {
			if i >= len(b) {
				return nil, fmt.Errorf("query mix for seed %d has only %d queries of shape %d", seed, len(b), s)
			}
			var facets []string
			if i%2 == 1 {
				facets = []string{"measures", "status"}
			}
			o, err := queryOp(clQuery, b[i], facets)
			if err != nil {
				return nil, err
			}
			o.shape = s
			out = append(out, o)
		}
	}
	return out, nil
}

// queryShape names which of BuildQueryMix's five shapes q is.
func queryShape(q search.Query) int {
	switch {
	case len(q.Filters) == 0 && q.SortBy == search.SortRank:
		return 1
	case len(q.Filters) == 0:
		return 0
	case q.Filters[0].Property == "measures":
		return 2
	case q.Filters[0].Property == "samplingRate":
		return 3
	default:
		return 4
	}
}

// queryOp renders a legacy query as a POST /api/v1/query request.
func queryOp(class string, q search.Query, facets []string) (op, error) {
	expr, err := search.LegacyExpr(q)
	if err != nil {
		return op{}, err
	}
	raw, err := query.Marshal(expr)
	if err != nil {
		return op{}, err
	}
	body, err := json.Marshal(struct {
		Query  json.RawMessage `json:"query"`
		Sort   string          `json:"sort,omitempty"`
		Order  string          `json:"order,omitempty"`
		Limit  int             `json:"limit,omitempty"`
		Facets []string        `json:"facets,omitempty"`
	}{raw, string(q.SortBy), string(q.Order), q.Limit, facets})
	if err != nil {
		return op{}, err
	}
	return op{class: class, method: "POST", path: "/api/v1/query", body: body, expr: expr,
		opts: search.ExecOptions{SortBy: q.SortBy, Order: q.Order, Limit: q.Limit, Facets: facets}}, nil
}

// searchStream is the advanced-search session: per 20 requests, 14
// structured queries, 2 autocompletes, 2 bar charts, a map and a tag cloud,
// in a fixed pattern. The seed picks the queries and constants.
func searchStream(seed int64) ([]op, error) {
	queries, err := querySet(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	prefixes := []string{"temp", "wi", "sn", "hum", "Sensor:", "Deployment:", "so", "pre"}
	pattern := []string{
		clQuery, clQuery, clAutocomplete, clQuery, clQuery, clChart, clQuery, clQuery, clMap, clQuery,
		clQuery, clAutocomplete, clQuery, clQuery, clChart, clQuery, clQuery, clTagCloud, clQuery, clQuery,
	}
	var out []op
	qi, ci := 0, 0
	for len(out) < 40*len(pattern) {
		for _, cl := range pattern {
			switch cl {
			case clQuery:
				out = append(out, queries[qi%len(queries)])
				qi++
			case clAutocomplete:
				p := prefixes[rng.Intn(len(prefixes))]
				out = append(out, op{class: cl, method: "GET", prefix: p,
					path: "/api/autocomplete?prefix=" + url.QueryEscape(p)})
			case clChart:
				out = append(out, chartOp(ci))
				ci++
			case clMap:
				site := siteNames[rng.Intn(len(siteNames))]
				out = append(out, op{class: cl, method: "GET",
					legacy: search.Query{Keywords: site, SortBy: search.SortRelevance, Limit: 50},
					path:   "/viz/map.svg?q=" + url.QueryEscape(site) + "&limit=50"})
			case clTagCloud:
				out = append(out, op{class: cl, method: "GET", path: tagCloudPath})
			}
		}
	}
	return out, nil
}

// chartOp is a bar chart of one property's value counts over every sensor
// page (the default streaming-facet path: no limit parameter). The charted
// property cycles, so every seed draws the same charts.
func chartOp(n int) op {
	prop := []string{"status", "samplingrate", "measures"}[n%3]
	q := search.Query{SortBy: search.SortRelevance, Namespace: "Sensor"}
	expr, _ := search.LegacyExpr(q)
	return op{class: clChart, method: "GET", prop: prop, expr: expr,
		path: "/viz/bar.svg?property=" + prop + "&namespace=Sensor"}
}

// structuredStream is the Query Management module's traffic: per 9
// requests, 4 SQL, 3 SPARQL and 2 combined queries. Each route has a fixed
// set of distinct queries — every value of each shape's constant — whose
// latencies lie in one band; the route cycles through its set in an order
// the seed shuffles, so every seed runs the same queries in the same
// proportions and a run covers each set several times. Statuses exclude
// "active", which matches three times as many sensors.
func structuredStream(seed int64) []op {
	rng := rand.New(rand.NewSource(seed + 2))
	rare := []string{"maintenance", "retired"}
	var sqls []string
	for _, m := range measurands {
		sqls = append(sqls, fmt.Sprintf("SELECT page, value FROM annotations WHERE property = 'measures' AND value = '%s'", m))
	}
	for _, st := range rare {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM annotations WHERE property = 'status' AND value = '%s'", st))
	}
	for _, p := range []string{"operatedby", "locatedin", "startyear"} {
		sqls = append(sqls, fmt.Sprintf("SELECT pages.title, annotations.value FROM pages JOIN annotations ON annotations.page = pages.title WHERE annotations.property = '%s'", p))
	}
	for _, inst := range institutions {
		sqls = append(sqls, fmt.Sprintf("SELECT page, tag FROM tags WHERE tag = '%s' ORDER BY page LIMIT 50", inst))
	}
	for _, p := range []string{"measures", "status", "samplingrate"} {
		sqls = append(sqls, fmt.Sprintf("SELECT value, COUNT(*) FROM annotations WHERE property = '%s' GROUP BY value ORDER BY value", p))
	}
	sparqlShapes := []string{
		`SELECT ?s WHERE { ?s <smr://prop/measures> "%s" }`,
		`SELECT ?s ?r WHERE { ?s <smr://prop/measures> "%s" . ?s <smr://prop/samplingrate> ?r }`,
		`SELECT ?s ?st WHERE { ?s <smr://prop/measures> "%s" . ?s <smr://prop/status> ?st }`,
	}
	var sparqls []string
	var combined []core.CombinedQuery
	for i, m := range measurands {
		sparqls = append(sparqls, fmt.Sprintf(sparqlShapes[i%len(sparqlShapes)], m))
		combined = append(combined, core.CombinedQuery{
			SPARQL:   fmt.Sprintf(`SELECT ?page WHERE { ?page <smr://prop/measures> "%s" }`, m),
			SQL:      fmt.Sprintf("SELECT page, value FROM annotations WHERE property = 'status' AND value = '%s'", rare[i%2]),
			Keywords: "sensor",
			Limit:    50,
		})
	}
	rng.Shuffle(len(sqls), func(i, j int) { sqls[i], sqls[j] = sqls[j], sqls[i] })
	rng.Shuffle(len(sparqls), func(i, j int) { sparqls[i], sparqls[j] = sparqls[j], sparqls[i] })
	rng.Shuffle(len(combined), func(i, j int) { combined[i], combined[j] = combined[j], combined[i] })

	var out []op
	var si, pi, ci int
	for len(out) < 9*len(sqls)*len(sparqls) {
		for _, cl := range []string{clSQL, clSPARQL, clCombined, clSQL, clSPARQL, clSQL, clCombined, clSQL, clSPARQL} {
			switch cl {
			case clSQL:
				q := sqls[si%len(sqls)]
				si++
				out = append(out, op{class: cl, method: "GET", sql: q, path: "/api/sql?q=" + url.QueryEscape(q)})
			case clSPARQL:
				q := sparqls[pi%len(sparqls)]
				pi++
				out = append(out, op{class: cl, method: "GET", sparql: q, path: "/api/sparql?q=" + url.QueryEscape(q)})
			case clCombined:
				cq := combined[ci%len(combined)]
				ci++
				body, _ := json.Marshal(struct {
					SPARQL   string `json:"sparql"`
					SQL      string `json:"sql"`
					Keywords string `json:"keywords"`
					Limit    int    `json:"limit"`
				}{cq.SPARQL, cq.SQL, cq.Keywords, cq.Limit})
				out = append(out, op{class: cl, method: "POST", path: "/api/v1/combined", body: body, comb: cq})
			}
		}
	}
	return out
}

// ingestCycle is one cycle of the ingest workload: a batch write to the
// bounded title pool, an explicit refresh, the read-your-write read and a
// few search-mix reads on the churned index.
type ingestCycle struct {
	write   op
	refresh op
	visible op
	reads   []op
}

// An ingest cycle writes 16 pages and then reads 4 times. Both numbers
// are chosen for sample counts: a 15 s run then completes about 140
// cycles, so write_p90_ms has about 14 samples beyond it, and about 700
// reads.
const (
	ingestBatch = 16
	ingestReads = 4
)

// ingestGen produces ingest cycles from a seed. It tracks each pool page's
// deployment so a metadata-only batch leaves the link graph unchanged and a
// link batch changes it.
type ingestGen struct {
	rng     *rand.Rand
	c       *corpus
	dep     map[string]string
	reads   []op
	n       int
	written map[string]int // pool title → writes issued, including set-up's
}

func newIngestGen(seed int64, c *corpus) (*ingestGen, error) {
	s, err := searchStream(seed)
	if err != nil {
		return nil, err
	}
	g := &ingestGen{rng: rand.New(rand.NewSource(seed + 3)), c: c,
		dep: map[string]string{}, written: map[string]int{}}
	g.restart()
	for _, o := range s {
		if o.class == clQuery || o.class == clTagCloud {
			g.reads = append(g.reads, o)
		}
	}
	return g, nil
}

// restart puts the pool back as a fresh set-up writes it: every page at
// its first revision and its set-up deployment. The cycle sequence goes on.
func (g *ingestGen) restart() {
	for i, title := range g.c.pool {
		g.dep[title] = g.c.poolDeps[i]
		g.written[title] = 1
	}
}

// next generates the following cycle. One batch in four moves its pages to
// other deployments (PageRank warm-starts); the others change metadata
// only (PageRank is skipped).
func (g *ingestGen) next() ingestCycle {
	n := g.n
	g.n++
	links := n%4 == 0
	perm := g.rng.Perm(len(g.c.pool))[:ingestBatch]
	writes := make([]smr.PageWrite, 0, ingestBatch)
	var rev string
	for k, pi := range perm {
		title := g.c.pool[pi]
		if links {
			g.dep[title] = g.c.deployments[g.rng.Intn(len(g.c.deployments))]
		}
		rev = fmt.Sprintf("c%d-%d", n, k)
		writes = append(writes, smr.PageWrite{Title: title, Author: "ingest", Comment: "ingest",
			Text: ingestText(g.rng, g.dep[title], rev)})
		g.written[title]++
	}
	body, _ := json.Marshal(struct {
		Pages []smr.PageWrite `json:"pages"`
	}{writes})
	// The read-your-write read looks the last page up by its new revision's
	// token.
	vis, _ := queryOp(clVisible, search.Query{Filters: []search.PropertyFilter{{
		Property: "ingestrev", Op: search.OpEquals, Value: rev}}}, nil)
	vis.want = writes[len(writes)-1].Title
	cyc := ingestCycle{
		write:   op{class: clWrite, method: "POST", path: "/api/v1/pages:batch", body: body, writes: writes},
		refresh: op{class: clRefresh, method: "POST", path: "/api/refresh"},
		visible: vis,
	}
	for i := 0; i < ingestReads; i++ {
		cyc.reads = append(cyc.reads, g.reads[(n*ingestReads+i)%len(g.reads)])
	}
	return cyc
}
