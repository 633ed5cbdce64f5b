package main

import (
	"fmt"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// classLatency summarizes one request class, with its sample count.
type classLatency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
}

// result is everything one run reports. The detailed form is printed
// first; contract() is the last line.
type result struct {
	Workload  string                  `json:"workload"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Env       map[string]any          `json:"env"`
	Classes   map[string]classLatency `json:"classes"`
	Named     map[string]metric       `json:"named,omitempty"`
	Metrics   map[string]metric       `json:"metrics"`
	Shards    int                     `json:"-"`
}

func (r *result) contract() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// slots maps the per-class latency slots of the end-to-end metrics
// (c1_p50_ms, c2_p50_ms, c3_p50_ms) to each workload's request
// classes, its main class first: every workload reports every end-to-end
// metric, and each slot summarizes exactly one class.
var slots = map[string][3]string{
	"search":     {clQuery, clChart, clTagCloud},
	"structured": {clSPARQL, clCombined, clSQL},
	"ingest":     {clWrite, "visible_total", clQuery},
}

// named are the per-class medians under the names the workload doc uses.
var named = map[string]map[string]string{
	"search":     {"query_p50_ms": clQuery, "autocomplete_p50_ms": clAutocomplete, "chart_p50_ms": clChart, "map_p50_ms": clMap, "tagcloud_p50_ms": clTagCloud},
	"structured": {"sql_p50_ms": clSQL, "sparql_p50_ms": clSPARQL, "combined_p50_ms": clCombined},
	"ingest":     {"query_p50_ms": clQuery, "write_p50_ms": clWrite, "visible_p50_ms": "visible_total", "refresh_p50_ms": clRefresh},
}

func summarize(lat map[string]samples) map[string]classLatency {
	out := map[string]classLatency{}
	for cl, s := range lat {
		out[cl] = classLatency{N: len(s), P50: s.quantile(0.5), P90: s.quantile(0.9), P99: s.quantile(0.99)}
	}
	return out
}

func readLatencies(lat map[string]samples) samples {
	var all samples
	for _, cl := range readClasses {
		all = append(all, lat[cl]...)
	}
	return all
}

// run executes one benchmark run.
func run(opt options) (res *result, err error) {
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	if opt.trace {
		return runTraced(b)
	}
	// Each set-up is followed by one segment of the timed phase on the
	// instance it built, so the timed phase is spread over the whole run
	// and over three instances rather than one stretch of it. The last
	// instance also gives heap_mb and recovery_s.
	var setupTimes []float64
	var heap float64
	var rec []float64
	var ph phase
	for i := 0; i < opt.setups; i++ {
		d, err := b.setUpNext(i)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d)
		n := 0
		if i == opt.setups-1 {
			b.dropInputs()
			heap = heapMB()
			n = reopens
		}
		if rec, _, err = b.prepare(n); err != nil {
			return nil, err
		}
		ph.add(b.timed(opt.seconds / float64(opt.setups)))
	}
	stored, err := b.storedRatio()
	if err != nil {
		return nil, err
	}
	dataBytes, err := dirBytes(b.in.dir)
	if err != nil {
		return nil, err
	}
	res = b.result()
	res.Classes = summarize(ph.lat)
	cl := res.Classes
	s := slots[opt.workload]
	res.Metrics = map[string]metric{
		"setup_s":                    {medianFloat(setupTimes), "s"},
		"ops_per_s":                  {medianFloat(ph.rates), "1/s"},
		"c1_p50_ms":                  {cl[s[0]].P50, "ms"},
		"c2_p50_ms":                  {cl[s[1]].P50, "ms"},
		"c3_p50_ms":                  {cl[s[2]].P50, "ms"},
		"recovery_s":                 {medianFloat(rec), "s"},
		"heap_mb":                    {heap, "MB"},
		"alloc_kb_per_op":            {float64(ph.alloc) / 1024 / float64(max(ph.ops, 1)), "kB"},
		"stored_bytes_per_user_byte": {stored, "B/B"},
	}
	reads := readLatencies(ph.lat)
	res.Named = map[string]metric{
		"read_p99_ms": {reads.quantile(0.99), "ms"},
		"read_p99_n":  {float64(len(reads)), "count"},
		"data_bytes":  {float64(dataBytes), "B"},
	}
	for name, class := range named[opt.workload] {
		res.Named[name] = metric{cl[class].P50, "ms"}
	}
	if opt.workload == "ingest" {
		res.Named["write_p90_ms"] = metric{cl[clWrite].P90, "ms"}
	}
	res.Named["gc_cpu_frac"] = metric{ph.gcFrac(), "ratio"}
	for i, t := range setupTimes {
		res.Named[fmt.Sprintf("setup_s_%d", i)] = metric{t, "s"}
	}
	for i, t := range rec {
		res.Named[fmt.Sprintf("recovery_s_%d", i)] = metric{t, "s"}
	}
	return res, nil
}

func (b *bench) result() *result {
	return &result{
		Workload:  b.opt.workload,
		Trace:     b.opt.trace,
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Shards:    b.shards,
	}
}

// runTraced is the traced run: one set-up with its page batches timed at
// System.PutPages, an untraced half of the timed phase, then the same
// stream replayed traced for the other half, probes of idle layers, and a
// reopen with sensormeta.Open timed. The two halves give the tracing
// overhead.
func runTraced(b *bench) (*result, error) {
	setupTr := newTracer()
	b.tr = setupTr
	if _, err := b.setUpNext(0); err != nil {
		return nil, err
	}
	b.dropInputs()
	b.tr = nil
	_, openTime, err := b.prepare(1)
	if err != nil {
		return nil, err
	}
	half := b.opt.seconds / 2
	if b.opt.cycles > 0 {
		half = 0
	}
	un := b.timed(half)
	b.pos = 0
	sys := b.in.sys
	tags0 := sys.Tags.Stats()
	tr := newTracer()
	b.tr = tr
	tp := b.timed(half)
	if err := tr.probeIdle(b); err != nil {
		return nil, err
	}
	tags1 := sys.Tags.Stats()
	b.tr = nil
	dataBytes, err := dirBytes(b.in.dir)
	if err != nil {
		return nil, err
	}
	respBytes := b.respBytes
	attempted := b.attempted
	wal := sys.Repo.WALStats()
	userBytes := b.userBytes
	res := b.result()
	res.Named = map[string]metric{"data_bytes": {float64(dataBytes), "B"}}
	res.Classes = summarize(tr.dur)
	for k, v := range summarize(tr.self) {
		res.Classes["self."+k] = v
	}

	// The write-side layers are measured on the workload's own writes, or
	// on the set-up's corpus batches where the workload writes nothing.
	writes := setupTr
	if b.gen != nil {
		writes = tr
	} else {
		wal = b.setupWAL
	}
	refreshes := max(tr.sum["refreshes"], 1)
	main := map[string]string{"search": clQuery, "structured": clSPARQL, "ingest": clQuery}[b.opt.workload]
	query := tr.dur["sensormeta.System.Query"]
	res.Metrics = map[string]metric{
		"server.query_self_ms":                 {tr.self["server.query"].quantile(0.5), "ms"},
		"server.resp_kb_per_op":                {float64(respBytes) / 1024 / float64(max(attempted, 1)), "kB"},
		"search.execute_ms":                    {query.quantile(0.5), "ms"},
		"search.execute_p99_ms":                {query.quantile(0.99), "ms"},
		"search.matched_per_result":            {ratio(tr.sum["search.matched"], tr.sum["search.results"]), "ratio"},
		"search.autocomplete_ms":               {tr.dur["sensormeta.System.Autocomplete"].quantile(0.5), "ms"},
		"viz.chart_ms":                         {append(tr.dur["http.chart"], tr.dur["http.map"]...).quantile(0.5), "ms"},
		"tagging.cloud_ms":                     {tr.dur["sensormeta.System.TagCloud"].quantile(0.5), "ms"},
		"relational.sql_ms":                    {tr.dur["sensormeta.System.QuerySQL"].quantile(0.5), "ms"},
		"relational.rows_examined_per_result":  {ratio(tr.sum["relational.rows_examined"], tr.sum["relational.result_rows"]), "ratio"},
		"relational.fallback_scans_per_query":  {ratio(tr.sum["relational.fallback_scans"], tr.sum["relational.queries"]), "ratio"},
		"sparql.exec_ms":                       {tr.dur["sensormeta.System.QuerySPARQL"].quantile(0.5), "ms"},
		"sparql.alloc_kb_per_query":            {ratio(tr.sum["sparql.alloc_bytes"], tr.sum["sparql.queries"]) / 1024, "kB"},
		"core.combined_ms":                     {tr.dur["sensormeta.System.QueryCombined"].quantile(0.5), "ms"},
		"core.combined_self_ms":                {tr.self["core.combined"].quantile(0.5), "ms"},
		"smr.putpages_ms":                      {writes.dur["sensormeta.System.PutPages"].quantile(0.5), "ms"},
		"smr.open_s":                           {openTime[0], "s"},
		"wal.fsyncs_per_batch":                 {ratio(writes.sum["wal.syncs"], writes.sum["wal.batches"]), "ratio"},
		"wal.mean_group":                       {wal.MeanBatch, "records"},
		"wal.bytes_per_user_byte":              {float64(wal.Bytes) / float64(userBytes), "B/B"},
		"wal.auto_snapshots":                   {float64(wal.AutoSnapshots), "count"},
		"sensormeta.refresh_ms":                {tr.dur["sensormeta.System.Refresh"].quantile(0.5), "ms"},
		"search.pages_applied_per_refresh":     {tr.sum["search.pages_applied"] / refreshes, "pages"},
		"ranking.warm_per_refresh":             {tr.sum["ranking.warm"] / refreshes, "ratio"},
		"ranking.skipped_per_refresh":          {tr.sum["ranking.skipped"] / refreshes, "ratio"},
		"recommend.pages_applied_per_refresh":  {tr.sum["recommend.pages_applied"] / refreshes, "pages"},
		"tagging.cliques_computed_per_refresh": {float64(tags1.CliquesComputed-tags0.CliquesComputed) / refreshes, "count"},
		"tagging.cache_hit_ratio":              {ratio(tr.sum["tagging.cache_hits"], tr.sum["tagging.cache_hits"]+tr.sum["tagging.cache_misses"]), "ratio"},
		"runtime.gc_cpu_frac":                  {un.gcFrac(), "ratio"},
		"trace.overhead_p50_frac":              {b.lat[main].quantile(0.5)/max(1e-9, un.lat[main].quantile(0.5)) - 1, "ratio"},
		"trace.overhead_ops_frac":              {1 - perSecond(tp)/max(1e-9, perSecond(un)), "ratio"},
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perSecond(p phase) float64 { return medianFloat(p.rates) }

// environment records what the numbers were measured on.
func environment(opt options, commit string, shards int) map[string]any {
	return map[string]any{
		"commit":              commit,
		"go":                  runtime.Version(),
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"shards":              shards,
		"fsync":               "always",
		"auto_snapshot_bytes": durableOptions().AutoSnapshotBytes,
		"auto_refresh":        "off",
		"corpus_sensors":      opt.sensors,
		"corpus_pool":         poolSize,
		"seed":                opt.seed,
		"workload":            opt.workload,
		"seconds":             opt.seconds,
		"setups":              opt.setups,
		"clients":             1,
		"loop":                "closed",
		"started":             time.Now().UTC().Format(time.RFC3339),
	}
}
