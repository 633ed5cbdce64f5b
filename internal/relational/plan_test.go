package relational

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/explain"
)

// Explain plans and executes a SELECT, returning the plan tree with both
// estimated and actual row counts per node.
func (db *DB) Explain(sql string) (*explain.Node, error) {
	_, plan, err := db.QueryWith(sql, QueryOptions{Explain: true})
	return plan, err
}

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
// tables with indexes, NULLs and dangling foreign keys, and an empty fourth.
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
	mustCreate(t, db, "alerts", []Column{ // always empty
		pkCol("id", TypeInt),
		{Name: "sensor_id", Type: TypeInt},
		{Name: "msg", Type: TypeText},
	}, "sensor_id")

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

// TestQueryMatchesReference is the executor's safety net: every generated
// query must give Query and referenceQuery (the written-order
// scan-everything interpreter in reference_test.go) the same rendered
// result — same rows, same order, including ORDER BY tie order — or the
// same error text. randomSelect's queries are the planner's shapes and
// must succeed; the arms of randomArmSelect add grouping with several
// aggregates, unknown and ambiguous columns, empty tables, NULL extension,
// LIKE and arithmetic, and may fail.
func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20110411)) // the paper's conference year
	arms := rand.New(rand.NewSource(2011))
	for trial := 0; trial < 60; trial++ {
		db := seedEquivalenceDB(t, rng)
		for q := 0; q < 8; q++ {
			sql := randomSelect(rng)
			if _, err := referenceQuery(db, sql); err != nil {
				t.Fatalf("trial %d: %q: %v", trial, sql, err)
			}
			checkMatchesReference(t, db, sql)
		}
		for q := 0; q < 40; q++ {
			checkMatchesReference(t, db, randomArmSelect(arms))
		}
	}
}

// checkMatchesReference fails the test unless sql gives Query and the
// reference the same rendered result or the same error text.
//
// Two differences are allowed, because the planner has always had them.
// An OrderByIndex plan reads rows in index order and stops when its LIMIT
// window fills, so where either side fails Query must equal
// windowReference, the reference over the rows the walk reads, in the
// order it reads them. Otherwise Query evaluates WHERE only on rows that
// pass its pushed-down conjuncts, so where only the reference, which
// evaluates WHERE on every row, fails Query must equal prunedReference, the
// reference with those conjuncts hoisted to the front of WHERE and every
// unknown or ambiguous column in WHERE read as NULL.
func checkMatchesReference(t testing.TB, db *DB, sql string) {
	t.Helper()
	got, errQ := db.Query(sql)
	want, errR := referenceQuery(db, sql)
	switch {
	case (errQ != nil || errR != nil) && walksIndex(db, sql):
		want, errR = windowReference(t, db, sql)
	case errQ == nil && errR != nil:
		want, errR = prunedReference(t, db, sql)
	}
	switch {
	case errQ != nil || errR != nil:
		if fmt.Sprint(errQ) != fmt.Sprint(errR) {
			t.Fatalf("%q: Query err=%v reference err=%v", sql, errQ, errR)
		}
	case renderResult(got) != renderResult(want):
		t.Fatalf("%q diverged\nQuery:\n%s\nreference:\n%s", sql, renderResult(got), renderResult(want))
	}
}

// walksIndex reports whether sql plans as an OrderByIndex walk.
func walksIndex(db *DB, sql string) bool {
	s, err := Parse(sql)
	if err != nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.compileSelect(s)
	return err == nil && p.preOrdered
}

// windowReference runs sql through the reference over the rows an
// OrderByIndex walk reads, inserted into a fresh table in the order the
// walk reads them: the table's rows in ORDER BY key order (equal keys in
// ascending id order), up to the first one whose WHERE or projection errs
// or the one that fills the LIMIT window.
func windowReference(t testing.TB, db *DB, sql string) (*ResultSet, error) {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table(s.From.Table)
	key, _ := tab.Schema.ColumnIndex(s.OrderBy[0].Expr.(*ColumnRef).Name)
	var rows []Row
	tab.Scan(func(_ int64, row Row) bool {
		rows = append(rows, row)
		return true
	})
	slices.SortStableFunc(rows, func(a, b Row) int {
		if s.OrderBy[0].Desc {
			return Compare(b[key], a[key])
		}
		return Compare(a[key], b[key])
	})
	window := len(rows) // without LIMIT the walk reads every row
	if s.HasLimit {
		window = max(s.Limit+s.Offset, 1) // the walk stops after a survivor
	}
	unlimited := *s
	unlimited.HasLimit, unlimited.HasOffset = false, false
	read := NewDB()
	if err := read.CreateTable(tab.Name, tab.Schema.Columns); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		mustInsert(t, read, tab.Name, row)
		rs, err := referenceSelect(read, &unlimited)
		if err != nil || len(rs.Rows) >= window {
			break
		}
	}
	return referenceSelect(read, s)
}

// prunedReference runs sql through the reference with WHERE rewritten as
// the planner's pruning sees it: the conjuncts the planner pushes down to
// a scan come first, so a row they reject never evaluates the rest, and a
// column reference that resolves to no binding or to several reads NULL.
func prunedReference(t testing.TB, db *DB, sql string) (*ResultSet, error) {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := db.resolveSources(s)
	if err != nil {
		t.Fatal(err)
	}
	var hoisted []Expr
	for _, e := range whereConjuncts(s.Where) {
		mask, resolvable := conjunctMask(e, sources)
		if !resolvable || bits.OnesCount64(mask) != 1 || !safePushdown(e) {
			continue
		}
		if src := sources[bits.TrailingZeros64(mask)]; src.join == nil || !src.join.Left {
			hoisted = append(hoisted, e)
		}
	}
	var nullUnresolved func(Expr) Expr
	nullUnresolved = func(e Expr) Expr {
		switch x := e.(type) {
		case *ColumnRef:
			matches := 0
			for _, sc := range sources {
				if x.Table != "" && !strings.EqualFold(x.Table, sc.ref.Name()) {
					continue
				}
				if _, ok := sc.table.Schema.ColumnIndex(x.Name); ok {
					matches++
				}
			}
			if matches != 1 {
				return &Literal{Val: Null()}
			}
		case *Binary:
			return &Binary{Op: x.Op, L: nullUnresolved(x.L), R: nullUnresolved(x.R)}
		case *Unary:
			return &Unary{Op: x.Op, X: nullUnresolved(x.X)}
		case *IsNullExpr:
			return &IsNullExpr{X: nullUnresolved(x.X), Not: x.Not}
		case *InExpr:
			in := &InExpr{X: nullUnresolved(x.X), Not: x.Not}
			for _, it := range x.List {
				in.List = append(in.List, nullUnresolved(it))
			}
			return in
		case *Call:
			c := *x
			c.Args = nil
			for _, a := range x.Args {
				c.Args = append(c.Args, nullUnresolved(a))
			}
			return &c
		}
		return e
	}
	if s.Where != nil {
		where := nullUnresolved(s.Where)
		for i := len(hoisted) - 1; i >= 0; i-- {
			where = &Binary{Op: "AND", L: hoisted[i], R: where}
		}
		s.Where = where
	}
	return referenceSelect(db, s)
}

// randomArmSelect generates the shapes randomSelect leaves out: GROUP BY
// with HAVING and several aggregates (DISTINCT ones, and SUM over text,
// which errors), unknown and ambiguous columns behind AND/OR
// short-circuits, the always-empty alerts table, LEFT JOIN NULL
// extension, LIKE and arithmetic.
func randomArmSelect(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	switch rng.Intn(6) {
	case 0: // grouped, several aggregates
		from := pick("sensors", "readings JOIN sensors ON readings.sensor_id = sensors.id",
			"readings LEFT JOIN sensors ON readings.sensor_id = sensors.id", "sensors LEFT JOIN alerts ON alerts.sensor_id = sensors.id")
		key := pick("sensors.kind", "sensors.site", "sensors.active", "sensors.kind, sensors.site")
		aggs := []string{"COUNT(*)", "COUNT(DISTINCT sensors.site)", "MIN(sensors.temp)", "MAX(sensors.site)",
			"AVG(sensors.temp)", "SUM(sensors.id)", "COUNT(sensors.temp)", "SUM(DISTINCT sensors.temp)"}
		if strings.HasPrefix(from, "readings") {
			aggs = append(aggs, "SUM(readings.val)", "AVG(DISTINCT readings.val)", "MAX(readings.page)")
		}
		if rng.Intn(4) == 0 {
			aggs = append(aggs, "SUM(sensors.site)") // errors on the first non-NULL text
		}
		sel := []string{key}
		for i := 0; i < 1+rng.Intn(3); i++ {
			sel = append(sel, aggs[rng.Intn(len(aggs))])
		}
		q := "SELECT " + strings.Join(sel, ", ") + " FROM " + from
		if rng.Intn(2) == 0 {
			q += " WHERE " + pick("sensors.temp > 10", "sensors.kind != 'co2'", "sensors.active", "sensors.id < 0")
		}
		q += " GROUP BY " + key
		if rng.Intn(2) == 0 {
			q += " HAVING " + pick("COUNT(*) > 1", "MIN(sensors.temp) IS NOT NULL", "COUNT(DISTINCT sensors.site) >= 2",
				"FALSE AND SUM(sensors.site) > 0", "SUM(sensors.site) > 0", "MAX(sensors.id) - MIN(sensors.id) > 3")
		}
		if rng.Intn(2) == 0 {
			q += " ORDER BY " + pick(key, "COUNT(*) DESC", "MIN(sensors.temp)")
		}
		return q
	case 1: // global aggregates, possibly over no rows
		from := pick("sensors", "alerts", "sensors LEFT JOIN alerts ON alerts.sensor_id = sensors.id", "alerts JOIN sensors ON alerts.sensor_id = sensors.id")
		sel := pick("COUNT(*)", "COUNT(*), SUM(sensors.temp), AVG(sensors.temp)", "MIN(sensors.kind), MAX(sensors.temp)",
			"COUNT(DISTINCT sensors.kind), SUM(sensors.site)", "COUNT(*), sensors.kind", "COUNT(*), nosuch", "SUM(id)")
		if strings.HasPrefix(from, "alerts") && !strings.Contains(from, "JOIN") {
			sel = pick("COUNT(*)", "COUNT(*), SUM(alerts.msg)", "MAX(alerts.msg), alerts.msg", "COUNT(*), nosuch", "SUM(alerts.nosuch)")
		}
		q := "SELECT " + sel + " FROM " + from
		if rng.Intn(2) == 0 {
			q += " WHERE " + pick("sensors.id < 0", "sensors.active", "alerts.id IS NULL", "alerts.msg LIKE '%'")
		}
		return q + pick("", " HAVING COUNT(*) > 0", " HAVING COUNT(*) = 0")
	case 2: // unknown and ambiguous columns behind short-circuits
		from := pick("sensors", "alerts", "readings JOIN sensors ON readings.sensor_id = sensors.id",
			"sensors LEFT JOIN alerts ON alerts.sensor_id = sensors.id", "readings JOIN tags ON tags.sensor_id = readings.sensor_id")
		bad := pick("nosuch = 1", "sensors.nosuch > 2", "id = 3", "sensor_id = 1", "nosuch.id = 1", "alerts.msg = 'x'")
		guard := pick("sensors.id < 0", "sensors.kind = 'temp'", "sensors.active", "sensors.temp > 30", "alerts.id = 7")
		where := pick(guard+" AND "+bad, bad+" AND "+guard, guard+" OR "+bad, "("+guard+" OR "+bad+") AND sensors.site = 'roof'", "NOT "+bad)
		sel := pick("*", "sensors.id", bad[:strings.IndexByte(bad, ' ')])
		q := "SELECT " + sel + " FROM " + from + " WHERE " + where
		return q + pick("", " ORDER BY sensors.id", " ORDER BY sensors.temp LIMIT 2", " LIMIT 1")
	case 3: // LEFT JOIN NULL extension
		from := pick("sensors LEFT JOIN readings ON readings.sensor_id = sensors.id",
			"sensors LEFT JOIN tags ON tags.sensor_id = sensors.id", "sensors LEFT JOIN alerts ON alerts.sensor_id = sensors.id",
			"readings LEFT JOIN sensors ON sensors.id = readings.sensor_id LEFT JOIN tags ON tags.sensor_id = sensors.id",
			"sensors LEFT JOIN readings ON readings.sensor_id = sensors.id AND readings.val > 50")
		sel := pick("*", "sensors.id, readings.val", "sensors.id, tags.label", "COALESCE(tags.label, 'none'), sensors.kind")
		if !strings.Contains(from, "readings") && strings.Contains(sel, "readings") {
			sel = "sensors.id"
		}
		if !strings.Contains(from, "tags") && strings.Contains(sel, "tags") {
			sel = "sensors.id, sensors.site"
		}
		q := "SELECT " + sel + " FROM " + from
		if rng.Intn(2) == 0 {
			q += " WHERE " + pick("sensors.id IS NULL", "sensors.kind = 'hum'", "sensors.id > 3", "sensors.temp < sensors.id",
				"sensors.id * 2 >= sensors.temp", "NOT (sensors.temp != sensors.id)")
		}
		return q + pick("", " ORDER BY sensors.id DESC", " LIMIT 7 OFFSET 2")
	case 4: // LIKE
		pat := pick("'%o%'", "'r_of'", "'%'", "'L%'", "'_a%'", "''", "NULL", "sensors.kind")
		q := "SELECT sensors.id, sensors.site FROM sensors WHERE sensors.site " + pick("LIKE ", "NOT LIKE ") + pat
		if rng.Intn(2) == 0 {
			q = "SELECT readings.page, readings.page LIKE 'P_' FROM readings WHERE readings.page LIKE " + pick("'p1'", "'P%'", "'%3'")
		}
		return q + pick("", " ORDER BY sensors.site", " LIMIT 4")
	default: // arithmetic
		sel := pick("readings.val * 2 + 1", "readings.val / 0", "-readings.val", "readings.val - readings.sensor_id",
			"readings.sensor_id * 3 - 1", "readings.page + 'x'", "readings.id / 2")
		q := "SELECT readings.id, " + sel + " AS a FROM readings"
		if rng.Intn(2) == 0 {
			q += " WHERE " + pick("readings.val * 2 > 100", "readings.sensor_id + 1 = 3", "readings.val / 0 IS NULL", "readings.val - 50 < 0",
				"readings.val > readings.sensor_id", "50 <= readings.val", "readings.val / 2 = readings.sensor_id")
		}
		return q + pick("", " ORDER BY a", " ORDER BY a DESC LIMIT 5")
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
// reorders to drive from the indexed predicate; the reference
// sub-benchmark is the written-order scan-everything interpreter
// (referenceQuery).
func BenchmarkJoinPlanner(b *testing.B) {
	benchAgainstReference(b, benchJoinDB(b), "SELECT s.id, r2.y FROM r1 JOIN r2 ON r1.x = r2.x JOIN s ON s.y = r2.y WHERE s.z = 7", -1)
}

// BenchmarkOrderByIndex measures index-backed ORDER BY with LIMIT pushdown
// at 10k rows against the sort-after-materialize reference.
func BenchmarkOrderByIndex(b *testing.B) {
	db := NewDB()
	mustCreate(b, db, "t", []Column{pkCol("id", TypeInt), {Name: "val", Type: TypeFloat}, {Name: "page", Type: TypeText}}, "val")
	for i := 0; i < 10000; i++ {
		row := Row{Int(int64(i)), Float(float64((i * 7919) % 10007)), Text(fmt.Sprintf("p%d", i%7))}
		if _, err := db.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
	benchAgainstReference(b, db, "SELECT id, val FROM t ORDER BY val LIMIT 20", 20)
}

// benchAgainstReference times q through Query ("planned") and through
// referenceQuery ("reference"); wantRows < 0 accepts any non-empty result.
func benchAgainstReference(b *testing.B, db *DB, q string, wantRows int) {
	for _, mode := range []struct {
		name string
		run  func() (*ResultSet, error)
	}{
		{"planned", func() (*ResultSet, error) { return db.Query(q) }},
		{"reference", func() (*ResultSet, error) { return referenceQuery(db, q) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := mode.run()
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) == 0 || (wantRows >= 0 && len(rs.Rows) != wantRows) {
					b.Fatalf("got %d rows", len(rs.Rows))
				}
			}
		})
	}
}
