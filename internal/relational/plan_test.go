package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderResult flattens a ResultSet into one deterministic string, typed
// values included, so two executions can be compared byte for byte.
func renderResult(rs *ResultSet) string {
	var b strings.Builder
	b.WriteString(strings.Join(rs.Columns, ","))
	b.WriteByte('\n')
	for _, r := range rs.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if v.IsNull() {
				b.WriteString("NULL")
			} else {
				b.WriteString(v.Type().String())
				b.WriteByte(':')
				b.WriteString(v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seedEquivalenceDB builds a random sensor-metadata database: three joinable
// tables with indexes, NULLs and dangling foreign keys.
func seedEquivalenceDB(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	mustCreate(t, db, "sensors", []Column{
		pkCol("id", TypeInt),
		{Name: "site", Type: TypeText},
		{Name: "kind", Type: TypeText},
		{Name: "temp", Type: TypeFloat},
		{Name: "active", Type: TypeBool},
	}, "kind", "temp")
	mustCreate(t, db, "readings", []Column{
		pkCol("id", TypeInt),
		{Name: "sensor_id", Type: TypeInt},
		{Name: "val", Type: TypeFloat},
		{Name: "page", Type: TypeText},
	}, "sensor_id", "val")
	mustCreate(t, db, "tags", []Column{
		pkCol("id", TypeInt),
		{Name: "sensor_id", Type: TypeInt},
		{Name: "label", Type: TypeText},
	}, "label")

	kinds := []string{"temp", "hum", "co2"}
	sites := []string{"roof", "lab", "yard", "hall"}
	labels := []string{"urgent", "ok", "stale", "x"}

	ns := 5 + rng.Intn(35)
	for i := 0; i < ns; i++ {
		temp := Float(float64(rng.Intn(40)))
		if rng.Intn(6) == 0 {
			temp = Null()
		}
		mustInsert(t, db, "sensors", Row{Int(int64(i)),
			Text(sites[rng.Intn(len(sites))]), Text(kinds[rng.Intn(len(kinds))]), temp, Bool(rng.Intn(2) == 0)})
	}
	nr := 10 + rng.Intn(110)
	for i := 0; i < nr; i++ {
		val := Float(float64(rng.Intn(100)))
		if rng.Intn(8) == 0 {
			val = Null()
		}
		// sensor_id occasionally dangles past the sensor range.
		mustInsert(t, db, "readings", Row{Int(int64(i)),
			Int(int64(rng.Intn(ns + 3))), val, Text(fmt.Sprintf("p%d", rng.Intn(5)))})
	}
	nt := rng.Intn(40)
	for i := 0; i < nt; i++ {
		mustInsert(t, db, "tags", Row{Int(int64(i)),
			Int(int64(rng.Intn(ns + 2))), Text(labels[rng.Intn(len(labels))])})
	}
	return db
}

// randomSelect generates a SELECT over the equivalence schema: joins (INNER
// and LEFT), multi-conjunct WHERE (including parenthesized AND and OR),
// GROUP BY/HAVING, DISTINCT, ORDER BY (columns and aliases) and
// LIMIT/OFFSET.
func randomSelect(rng *rand.Rand) string {
	nTables := 1 + rng.Intn(3)
	from := "sensors"
	var wherePool []string
	switch nTables {
	case 1:
		if rng.Intn(2) == 0 {
			from = "readings"
			wherePool = append(wherePool,
				fmt.Sprintf("readings.val >= %d", rng.Intn(100)),
				fmt.Sprintf("readings.val < %d", rng.Intn(100)),
				"readings.page LIKE 'p%'",
				"readings.val IS NULL",
				fmt.Sprintf("readings.sensor_id = %d", rng.Intn(20)),
			)
		} else {
			wherePool = append(wherePool, sensorPreds(rng)...)
		}
	case 2:
		join := "JOIN"
		if rng.Intn(3) == 0 {
			join = "LEFT JOIN"
		}
		from = "readings " + join + " sensors ON readings.sensor_id = sensors.id"
		wherePool = append(wherePool, sensorPreds(rng)...)
		wherePool = append(wherePool,
			fmt.Sprintf("readings.val > %d", rng.Intn(100)),
			"readings.val IS NOT NULL",
		)
		if join == "LEFT JOIN" {
			wherePool = append(wherePool, "sensors.id IS NULL")
		}
	default:
		j2 := "JOIN"
		if rng.Intn(3) == 0 {
			j2 = "LEFT JOIN"
		}
		from = "readings JOIN sensors ON readings.sensor_id = sensors.id " +
			j2 + " tags ON tags.sensor_id = sensors.id"
		wherePool = append(wherePool, sensorPreds(rng)...)
		wherePool = append(wherePool, "tags.label != 'x'", "tags.label = 'urgent'")
	}

	var conjs []string
	for i := 0; i < rng.Intn(3); i++ {
		conjs = append(conjs, wherePool[rng.Intn(len(wherePool))])
	}
	where := ""
	if len(conjs) > 0 {
		where = " WHERE " + strings.Join(conjs, " AND ")
	}

	grouped := nTables >= 2 && rng.Intn(4) == 0
	var sel, group, order string
	if grouped {
		sel = "sensors.kind, COUNT(*), SUM(readings.val)"
		group = " GROUP BY sensors.kind"
		if rng.Intn(2) == 0 {
			group += " HAVING COUNT(*) > 1"
		}
		order = " ORDER BY sensors.kind"
	} else {
		switch rng.Intn(4) {
		case 0:
			sel = "*"
		case 1:
			if nTables == 1 {
				if strings.HasPrefix(from, "readings") {
					sel = "readings.id, readings.val AS v"
				} else {
					sel = "sensors.id, sensors.temp AS v"
				}
			} else {
				sel = "readings.id, readings.val AS v, sensors.site"
			}
		default:
			if strings.HasPrefix(from, "readings") {
				sel = "readings.id, readings.page"
			} else {
				sel = "sensors.id, sensors.kind"
			}
		}
		if rng.Intn(5) == 0 {
			sel = "DISTINCT " + sel
		}
		switch rng.Intn(4) {
		case 0:
			if strings.HasPrefix(from, "readings") {
				order = " ORDER BY readings.val"
			} else {
				order = " ORDER BY sensors.temp"
			}
			if rng.Intn(2) == 0 {
				order += " DESC"
			}
		case 1:
			if strings.Contains(sel, " AS v") {
				order = " ORDER BY v DESC"
			} else if strings.HasPrefix(from, "readings") {
				order = " ORDER BY readings.id"
			} else {
				order = " ORDER BY sensors.id"
			}
		case 2:
			if strings.HasPrefix(from, "readings") {
				order = " ORDER BY readings.page, readings.id DESC"
			}
		}
	}

	limit := ""
	if rng.Intn(2) == 0 {
		limit = fmt.Sprintf(" LIMIT %d", 1+rng.Intn(15))
		if rng.Intn(3) == 0 {
			limit += fmt.Sprintf(" OFFSET %d", rng.Intn(6))
		}
	}
	return "SELECT " + sel + " FROM " + from + where + group + order + limit
}

func sensorPreds(rng *rand.Rand) []string {
	return []string{
		"sensors.kind = 'temp'",
		fmt.Sprintf("sensors.temp > %d", rng.Intn(40)),
		fmt.Sprintf("sensors.temp <= %d", rng.Intn(40)),
		"sensors.active",
		fmt.Sprintf("sensors.id <= %d", rng.Intn(30)),
		fmt.Sprintf("(sensors.id = %d AND sensors.active)", rng.Intn(30)),
		"(sensors.kind = 'hum' OR sensors.kind = 'co2')",
		"sensors.temp IS NOT NULL",
	}
}

// TestPlannerFallbackEquivalence is the planner's safety net: every
// generated query must return a byte-identical ResultSet whether it runs
// through the cost-based planner or the forced scan-everything fallback —
// same rows, same order, including ORDER BY tie order.
func TestPlannerFallbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20110411)) // the paper's conference year
	for trial := 0; trial < 60; trial++ {
		db := seedEquivalenceDB(t, rng)
		for q := 0; q < 8; q++ {
			sql := randomSelect(rng)
			planned, _, errP := db.QueryWith(sql, QueryOptions{})
			fallback, _, errF := db.QueryWith(sql, QueryOptions{ForceFallback: true})
			if (errP != nil) != (errF != nil) {
				t.Fatalf("trial %d: %q: planner err=%v fallback err=%v", trial, sql, errP, errF)
			}
			if errP != nil {
				t.Fatalf("trial %d: %q: %v", trial, sql, errP)
			}
			got, want := renderResult(planned), renderResult(fallback)
			if got != want {
				t.Fatalf("trial %d: %q diverged\nplanner:\n%s\nfallback:\n%s", trial, sql, got, want)
			}
		}
	}
}

// seedExplainDB is the fixed dataset behind the EXPLAIN golden tests:
// sensor pages with annotation triples and tags, as in the paper's wiki.
func seedExplainDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustCreate(t, db, "pages", []Column{pkCol("id", TypeInt), {Name: "title", Type: TypeText}, {Name: "author", Type: TypeText}})
	mustCreate(t, db, "annotations", []Column{
		pkCol("id", TypeInt),
		{Name: "page_id", Type: TypeInt},
		{Name: "property", Type: TypeText},
		{Name: "value", Type: TypeText},
	}, "page_id", "property")
	mustCreate(t, db, "tags", []Column{pkCol("id", TypeInt), {Name: "page_id", Type: TypeInt}, {Name: "label", Type: TypeText}}, "label")
	props := []string{"measures", "locatedIn", "hasUnit", "partOf"}
	for i := 0; i < 50; i++ {
		mustInsert(t, db, "pages", Row{Int(int64(i)), Text(fmt.Sprintf("Sensor %d", i)), Text(fmt.Sprintf("author%d", i%5))})
		for j := 0; j < 4; j++ {
			mustInsert(t, db, "annotations", Row{Int(int64(i*4 + j)), Int(int64(i)), Text(props[j]), Text(fmt.Sprintf("v%d", j))})
		}
	}
	for i := 0; i < 25; i++ {
		label := "ok"
		if i%5 == 0 {
			label = "urgent"
		}
		mustInsert(t, db, "tags", Row{Int(int64(i)), Int(int64(i * 2)), Text(label)})
	}
	return db
}

// TestExplainGolden pins the plan shape and row counts for the canonical
// paper queries. A diff here means the planner changed its mind — update
// deliberately.
func TestExplainGolden(t *testing.T) {
	db := seedExplainDB(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{
			name: "parenthesized AND drives the primary-key index",
			sql:  "SELECT title FROM pages WHERE (id = 3 AND author = 'author3')",
			want: `Project(title) est=0 act=1
└─ Filter(((id = 3) AND (author = 'author3'))) est=0 act=1
   └─ IndexScan(pages: (id = 3)) est=0 act=1`,
		},
		{
			name: "secondary index with hash join",
			sql:  "SELECT pages.title, annotations.value FROM pages JOIN annotations ON annotations.page_id = pages.id WHERE annotations.property = 'measures'",
			want: `Project(title, value) est=50 act=50
└─ Filter((annotations.property = 'measures')) est=50 act=50
   └─ HashJoin(pages.id = annotations.page_id build=right) est=50 act=50
      ├─ TableScan(pages) est=50 act=50
      └─ IndexScan(annotations: (annotations.property = 'measures')) est=50 act=50`,
		},
		{
			name: "three-way join reordered to the selective tag",
			sql:  "SELECT pages.title FROM pages JOIN annotations ON annotations.page_id = pages.id JOIN tags ON tags.page_id = pages.id WHERE tags.label = 'urgent'",
			want: `Project(title) est=20 act=20
└─ RestoreOrder(written order) est=20 act=20
   └─ Filter((tags.label = 'urgent')) est=20 act=20
      └─ HashJoin(pages.id = annotations.page_id build=left) est=20 act=20
         ├─ HashJoin(tags.page_id = pages.id build=left) est=5 act=5
         │  ├─ IndexScan(tags: (tags.label = 'urgent')) est=5 act=5
         │  └─ TableScan(pages) est=50 act=50
         └─ TableScan(annotations) est=200 act=200`,
		},
		{
			name: "index-backed ORDER BY with LIMIT pushdown",
			sql:  "SELECT id, value FROM annotations ORDER BY property LIMIT 5",
			want: `Limit(limit=5) est=5 act=5
└─ Project(id, value) est=5 act=5
   └─ OrderByIndex(annotations.property ASC limit=5) est=5 act=5`,
		},
		{
			name: "left join keeps written order and full scans",
			sql:  "SELECT pages.title, tags.label FROM pages LEFT JOIN tags ON tags.page_id = pages.id WHERE tags.label IS NULL LIMIT 3",
			want: `Limit(limit=3) est=3 act=3
└─ Project(title, label) est=150 act=25
   └─ Filter(tags.label IS NULL) est=150 act=25
      └─ HashJoin(pages.id = tags.page_id build=right outer) est=150 act=50
         ├─ TableScan(pages) est=50 act=50
         └─ TableScan(tags) est=25 act=25`,
		},
		{
			name: "grouped aggregate over filtered annotations",
			sql:  "SELECT property, COUNT(*) FROM annotations WHERE page_id <= 9 GROUP BY property ORDER BY property",
			want: `OrderBySort(property ASC) est=40 act=4
└─ GroupAggregate(by property) est=40 act=4
   └─ Filter((page_id <= 9)) est=40 act=40
      └─ IndexScan(annotations: (page_id <= 9)) est=40 act=40`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := db.Explain(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.String()
			if got != tc.want {
				t.Fatalf("plan mismatch for %q\ngot:\n%s\nwant:\n%s", tc.sql, got, tc.want)
			}
		})
	}
}

// TestParenthesizedAndUsesIndex pins the regression from the pre-planner
// executor, which fell back to a full scan for WHERE (id = 3 AND active):
// the planner must recurse through parenthesized AND conjuncts and still
// drive the scan from the primary-key index.
func TestParenthesizedAndUsesIndex(t *testing.T) {
	db := seedExplainDB(t)
	plan, err := db.Explain("SELECT title FROM pages WHERE (id = 3 AND author = 'author3')")
	if err != nil {
		t.Fatal(err)
	}
	text := plan.String()
	if !strings.Contains(text, "IndexScan") {
		t.Fatalf("expected IndexScan for parenthesized AND on an indexed column, got:\n%s", text)
	}
	rs, err := db.Query("SELECT title FROM pages WHERE (id = 3 AND author = 'author3')")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "Sensor 3" {
		t.Fatalf("unexpected result: %+v", rs.Rows)
	}
}

// TestPlannerStatsCounters checks the admin-facing counters move when the
// corresponding plan nodes execute.
func TestPlannerStatsCounters(t *testing.T) {
	db := seedExplainDB(t)
	queries := []string{
		"SELECT title FROM pages WHERE id = 3",
		"SELECT value FROM annotations WHERE property = 'measures' ORDER BY id LIMIT 5",
		"SELECT id FROM annotations ORDER BY property LIMIT 5",
		"SELECT pages.title FROM pages JOIN annotations ON annotations.page_id = pages.id WHERE annotations.property = 'measures'",
		"SELECT pages.title FROM pages JOIN annotations ON annotations.page_id = pages.id JOIN tags ON tags.page_id = pages.id WHERE tags.label = 'urgent'",
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	st := db.PlannerStats()
	if st.PlansBuilt < uint64(len(queries)) {
		t.Fatalf("plansBuilt = %d, want >= %d", st.PlansBuilt, len(queries))
	}
	if st.IndexScans == 0 {
		t.Fatalf("indexScans = 0, want > 0: %+v", st)
	}
	if st.IndexOrderHits == 0 {
		t.Fatalf("indexOrderHits = 0, want > 0: %+v", st)
	}
	if st.HashJoins == 0 {
		t.Fatalf("hashJoins = 0, want > 0: %+v", st)
	}
	if st.JoinReorders == 0 {
		t.Fatalf("joinReorders = 0, want > 0: %+v", st)
	}
	if st.EstimateSamples == 0 || st.EstimateErrorP50 < 1 {
		t.Fatalf("estimate sample not recorded: %+v", st)
	}
}

// --- acceptance benchmarks ---

// benchJoinDB: three tables where the written join order (r1 ⋈ r2 first)
// explodes into |r1|·|r2|/20 intermediate rows, while starting from the
// selective indexed predicate on s keeps intermediates tiny.
func benchJoinDB(b *testing.B) *DB {
	b.Helper()
	db := NewDB()
	mustCreate(b, db, "r1", []Column{pkCol("id", TypeInt), {Name: "x", Type: TypeInt}})
	mustCreate(b, db, "r2", []Column{pkCol("id", TypeInt), {Name: "x", Type: TypeInt}, {Name: "y", Type: TypeInt}})
	mustCreate(b, db, "s", []Column{pkCol("id", TypeInt), {Name: "y", Type: TypeInt}, {Name: "z", Type: TypeInt}}, "z")
	for i := 0; i < 2000; i++ {
		if _, err := db.Insert("r1", Row{Int(int64(i)), Int(int64(i % 20))}); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Insert("r2", Row{Int(int64(i)), Int(int64((i + 7) % 20)), Int(int64(i % 100))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Insert("s", Row{Int(int64(i)), Int(int64(i)), Int(int64(i % 50))}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkJoinPlanner measures the tentpole join win: a three-table join
// whose selective WHERE conjunct is on the last written table. The planner
// reorders to drive from the indexed predicate; the fallback sub-benchmark
// is the written-order scan-everything baseline.
func BenchmarkJoinPlanner(b *testing.B) {
	db := benchJoinDB(b)
	const q = "SELECT s.id, r2.y FROM r1 JOIN r2 ON r1.x = r2.x JOIN s ON s.y = r2.y WHERE s.z = 7"
	for _, mode := range []struct {
		name string
		opts QueryOptions
	}{
		{"planned", QueryOptions{}},
		{"fallback", QueryOptions{ForceFallback: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := db.QueryWith(q, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) == 0 {
					b.Fatal("expected rows")
				}
			}
		})
	}
}

// BenchmarkOrderByIndex measures index-backed ORDER BY with LIMIT pushdown
// at 10k rows against the sort-after-materialize baseline.
func BenchmarkOrderByIndex(b *testing.B) {
	db := NewDB()
	mustCreate(b, db, "t", []Column{pkCol("id", TypeInt), {Name: "val", Type: TypeFloat}, {Name: "page", Type: TypeText}}, "val")
	for i := 0; i < 10000; i++ {
		row := Row{Int(int64(i)), Float(float64((i * 7919) % 10007)), Text(fmt.Sprintf("p%d", i%7))}
		if _, err := db.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT id, val FROM t ORDER BY val LIMIT 20"
	for _, mode := range []struct {
		name string
		opts QueryOptions
	}{
		{"planned", QueryOptions{}},
		{"fallback", QueryOptions{ForceFallback: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := db.QueryWith(q, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) != 20 {
					b.Fatalf("got %d rows", len(rs.Rows))
				}
			}
		})
	}
}
