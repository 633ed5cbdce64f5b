package relational

import (
	"fmt"
	"strings"
	"testing"
)

// pkCol is a PRIMARY KEY column (which implies NOT NULL).
func pkCol(name string, typ Type) Column {
	return Column{Name: name, Type: typ, PrimaryKey: true, NotNull: true}
}

// mustCreate creates a table plus a secondary index on each named column.
func mustCreate(t testing.TB, db *DB, name string, cols []Column, indexes ...string) {
	t.Helper()
	if err := db.CreateTable(name, cols); err != nil {
		t.Fatalf("CreateTable(%s): %v", name, err)
	}
	tab, _ := db.Table(name)
	for _, col := range indexes {
		if err := tab.AddIndex(col); err != nil {
			t.Fatalf("AddIndex(%s.%s): %v", name, col, err)
		}
	}
}

// mustInsert inserts rows (values in schema order) into a table.
func mustInsert(t testing.TB, db *DB, table string, rows ...Row) {
	t.Helper()
	for _, row := range rows {
		if _, err := db.Insert(table, row); err != nil {
			t.Fatalf("Insert(%s, %v): %v", table, row, err)
		}
	}
}

// newSensorDB builds the small fixture used across the SQL tests: a sensors
// table with a primary key and a deployments table for joins.
func newSensorDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	mustCreate(t, db, "sensors", []Column{
		pkCol("id", TypeInt),
		{Name: "name", Type: TypeText, NotNull: true},
		{Name: "deployment", Type: TypeText},
		{Name: "altitude", Type: TypeFloat},
		{Name: "active", Type: TypeBool},
	})
	mustCreate(t, db, "deployments", []Column{pkCol("name", TypeText), {Name: "site", Type: TypeText, NotNull: true}})
	mustInsert(t, db, "sensors",
		Row{Int(1), Text("wind-01"), Text("wannengrat"), Float(2440.5), Bool(true)},
		Row{Int(2), Text("temp-01"), Text("wannengrat"), Float(2440.5), Bool(true)},
		Row{Int(3), Text("snow-07"), Text("davos"), Float(1560.0), Bool(false)},
		Row{Int(4), Text("temp-02"), Text("davos"), Float(1560.0), Bool(true)},
		Row{Int(5), Text("orphan"), Null(), Null(), Bool(false)})
	mustInsert(t, db, "deployments",
		Row{Text("wannengrat"), Text("Wannengrat Ridge")},
		Row{Text("davos"), Text("Davos Valley")})
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []Column{{Name: "a", Type: TypeInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("T", []Column{{Name: "a", Type: TypeInt}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := db.CreateTable("u", []Column{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeText}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := db.CreateTable("v", []Column{pkCol("a", TypeInt), pkCol("b", TypeInt)}); err == nil {
		t.Error("two primary keys accepted")
	}
	if err := db.CreateTable("w", []Column{{Name: "", Type: TypeInt}}); err == nil {
		t.Error("empty column name accepted")
	}
}

func TestSelectAll(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT * FROM sensors ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rs.Rows))
	}
	if len(rs.Columns) != 5 || rs.Columns[0] != "id" {
		t.Errorf("columns = %v", rs.Columns)
	}
	if rs.Rows[0][1].Text0() != "wind-01" {
		t.Errorf("first row = %v", rs.Rows[0])
	}
}

func TestSelectWhereAndProjection(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT name FROM sensors WHERE deployment = 'davos' AND active ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "temp-02" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSelectLikeAndIn(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT name FROM sensors WHERE name LIKE 'temp%' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("LIKE matched %d rows", len(rs.Rows))
	}
	rs, err = db.Query(`SELECT name FROM sensors WHERE id IN (1, 3) ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text0() != "wind-01" {
		t.Errorf("IN rows = %v", rs.Rows)
	}
	rs, err = db.Query(`SELECT name FROM sensors WHERE id NOT IN (1, 2, 3, 4) ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "orphan" {
		t.Errorf("NOT IN rows = %v", rs.Rows)
	}
}

func TestSelectIsNull(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT name FROM sensors WHERE deployment IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "orphan" {
		t.Errorf("IS NULL rows = %v", rs.Rows)
	}
	rs, err = db.Query(`SELECT COUNT(*) FROM sensors WHERE deployment IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int64() != 4 {
		t.Errorf("IS NOT NULL count = %v", rs.Rows[0][0])
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT deployment, COUNT(*) AS n, AVG(altitude) FROM sensors
		WHERE deployment IS NOT NULL GROUP BY deployment ORDER BY deployment`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("groups = %v", rs.Rows)
	}
	if rs.Rows[0][0].Text0() != "davos" || rs.Rows[0][1].Int64() != 2 || rs.Rows[0][2].Float64() != 1560 {
		t.Errorf("davos group = %v", rs.Rows[0])
	}
	if rs.Columns[1] != "n" {
		t.Errorf("alias lost: %v", rs.Columns)
	}
}

func TestGlobalAggregates(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT COUNT(*), MIN(altitude), MAX(altitude), SUM(id) FROM sensors`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rows[0]
	if r[0].Int64() != 5 || r[1].Float64() != 1560 || r[2].Float64() != 2440.5 || r[3].Int64() != 15 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestCountDistinct(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT COUNT(DISTINCT deployment) FROM sensors`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int64() != 2 {
		t.Errorf("COUNT(DISTINCT) = %v, want 2 (NULL excluded)", rs.Rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT deployment, COUNT(*) AS n FROM sensors
		WHERE deployment IS NOT NULL GROUP BY deployment HAVING COUNT(*) > 1 ORDER BY deployment`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("HAVING kept %d groups, want 2", len(rs.Rows))
	}
	rs, err = db.Query(`SELECT deployment FROM sensors GROUP BY deployment HAVING COUNT(*) > 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("HAVING >2 kept %v", rs.Rows)
	}
}

func TestJoin(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT s.name, d.site FROM sensors s
		JOIN deployments d ON s.deployment = d.name ORDER BY s.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("join rows = %d, want 4", len(rs.Rows))
	}
	if rs.Rows[0][0].Text0() != "snow-07" || rs.Rows[0][1].Text0() != "Davos Valley" {
		t.Errorf("first join row = %v", rs.Rows[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT s.name, d.site FROM sensors s
		LEFT JOIN deployments d ON s.deployment = d.name ORDER BY s.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Fatalf("left join rows = %d, want 5", len(rs.Rows))
	}
	// orphan has no deployment: site must be NULL.
	found := false
	for _, r := range rs.Rows {
		if r[0].Text0() == "orphan" {
			found = true
			if !r[1].IsNull() {
				t.Errorf("orphan site = %v, want NULL", r[1])
			}
		}
	}
	if !found {
		t.Error("orphan row missing from left join")
	}
}

func TestOrderByDescAndLimitOffset(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT id FROM sensors ORDER BY id DESC LIMIT 2 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int64() != 4 || rs.Rows[1][0].Int64() != 3 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT DISTINCT deployment FROM sensors WHERE deployment IS NOT NULL ORDER BY deployment`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("distinct rows = %v", rs.Rows)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := newSensorDB(t)
	if _, err := db.Insert("sensors", Row{Int(1), Text("dup"), Null(), Null(), Null()}); err == nil {
		t.Error("duplicate primary key accepted")
	}
	if _, err := db.Insert("sensors", Row{Null(), Text("no-id"), Null(), Null(), Null()}); err == nil {
		t.Error("NULL primary key accepted")
	}
	if _, err := db.Insert("sensors", Row{Int(99), Null(), Null(), Null(), Null()}); err == nil {
		t.Error("NULL in NOT NULL name accepted")
	}
	if rs, _ := db.Query(`SELECT COUNT(*) FROM sensors`); rs.Rows[0][0].Int64() != 5 {
		t.Errorf("rejected inserts left rows behind: %v", rs.Rows[0][0])
	}
}

func TestTypeChecking(t *testing.T) {
	db := newSensorDB(t)
	if _, err := db.Insert("sensors", Row{Int(10), Text("x"), Null(), Text("high"), Null()}); err == nil {
		t.Error("text in float column accepted")
	}
	if _, err := db.Insert("sensors", Row{Int(10), Text("x"), Null()}); err == nil {
		t.Error("short row accepted")
	}
	// int into float column is fine
	if _, err := db.Insert("sensors", Row{Int(11), Text("y"), Null(), Int(1000), Null()}); err != nil {
		t.Errorf("int→float insert rejected: %v", err)
	}
	rs, _ := db.Query(`SELECT altitude FROM sensors WHERE id = 11`)
	if v := rs.Rows[0][0]; v.Type() != TypeFloat || v.Float64() != 1000 {
		t.Errorf("coerced altitude = %v (%v)", v, v.Type())
	}
}

func TestCreateIndexAndLookup(t *testing.T) {
	db := newSensorDB(t)
	sensors, _ := db.Table("sensors")
	if err := sensors.AddIndex("deployment"); err != nil {
		t.Fatal(err)
	}
	// Index path and scan path must agree.
	rs, err := db.Query(`SELECT name FROM sensors WHERE deployment = 'davos' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("indexed lookup rows = %v", rs.Rows)
	}
	// Range over the indexed column.
	rs, err = db.Query(`SELECT COUNT(*) FROM sensors WHERE altitude > 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int64() != 2 {
		t.Errorf("range count = %v", rs.Rows[0][0])
	}
	if err := sensors.AddIndex("Deployment"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := sensors.AddIndex("nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
}

func TestScalarFunctions(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT UPPER(name), LOWER('ABC'), LENGTH(name), COALESCE(deployment, 'none'),
		CONCAT(name, '/', deployment), SUBSTR(name, 1, 4) FROM sensors WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rows[0]
	if r[0].Text0() != "ORPHAN" || r[1].Text0() != "abc" || r[2].Int64() != 6 {
		t.Errorf("scalar funcs = %v", r)
	}
	if r[3].Text0() != "none" {
		t.Errorf("COALESCE = %v", r[3])
	}
	if r[4].Text0() != "orphan/" { // NULL deployment skipped by CONCAT
		t.Errorf("CONCAT = %v", r[4])
	}
	if r[5].Text0() != "orph" {
		t.Errorf("SUBSTR = %v", r[5])
	}
}

func TestArithmetic(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT id * 2 + 1, id / 2, -id, ABS(-3), ROUND(2.7) FROM sensors WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rows[0]
	if r[0].Int64() != 7 {
		t.Errorf("3*2+1 = %v", r[0])
	}
	if r[1].Float64() != 1.5 {
		t.Errorf("3/2 = %v", r[1])
	}
	if r[2].Int64() != -3 || r[3].Int64() != 3 || r[4].Float64() != 3 {
		t.Errorf("unary/abs/round = %v", r)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT id / 0 FROM sensors WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Rows[0][0].IsNull() {
		t.Errorf("x/0 = %v, want NULL", rs.Rows[0][0])
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := newSensorDB(t)
	for _, sql := range []string{
		`DELETE FROM sensors`,
		`UPDATE sensors SET active = FALSE`,
		`INSERT INTO sensors VALUES (9, 'x', NULL, NULL, NULL)`,
		`DROP TABLE sensors`,
		`CREATE TABLE t (a INT)`,
		`ALTER TABLE sensors ADD COLUMN v TEXT`,
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query accepted %q", sql)
		}
		if _, err := db.EstimateSelect(sql); err == nil {
			t.Errorf("EstimateSelect accepted %q", sql)
		}
	}
	if rs, _ := db.Query(`SELECT COUNT(*) FROM sensors`); rs.Rows[0][0].Int64() != 5 {
		t.Errorf("sensors changed: %v rows", rs.Rows[0][0])
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	db := newSensorDB(t)
	for _, sql := range []string{
		`SELECT * FROM nope`,
		`SELECT nope FROM sensors`,
		`SELECT s.nope FROM sensors s`,
		`SELECT * FROM sensors JOIN nope ON sensors.id = nope.id`,
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
	if _, err := db.Insert("nope", Row{Int(1)}); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if err := db.ReplaceRows(Int(1), RowSet{Table: "nope", Column: "id"}); err == nil {
		t.Error("ReplaceRows on unknown table accepted")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newSensorDB(t)
	// Both tables have a "name" column.
	if _, err := db.Query(`SELECT name FROM sensors s JOIN deployments d ON s.deployment = d.name`); err == nil {
		t.Error("ambiguous column accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		``,
		`SELEC * FROM t`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`INSERT INTO t VALUES`,
		`CREATE TABLE t`,
		`CREATE TABLE t (a BADTYPE)`,
		`SELECT * FROM t; SELECT 1 FROM u`,
		`SELECT 'unterminated FROM t`,
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("no parse error for %q", sql)
		}
	}
}

func TestProgrammaticAPI(t *testing.T) {
	db := NewDB()
	err := db.CreateTable("t", []Column{
		{Name: "k", Type: TypeText, PrimaryKey: true},
		{Name: "v", Type: TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", Row{Text("a"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("missing", Row{Text("a")}); err == nil {
		t.Error("insert into missing table accepted")
	}
	tab, ok := db.Table("T") // case-insensitive
	if !ok || tab.NumRows() != 1 {
		t.Error("Table lookup failed")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestTableDeleteByID(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []Column{{Name: "v", Type: TypeInt, Unique: true}}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")
	id, err := tab.Insert(Row{Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := tab.Insert(Row{Int(2)})
	if _, err := tab.Insert(Row{Int(2)}); err == nil {
		t.Error("unique violation on insert accepted")
	}
	if !tab.Delete(id2) || tab.Delete(id2) {
		t.Error("delete semantics wrong")
	}
	// The deleted value is free again.
	if _, err := tab.Insert(Row{Int(2)}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
	r, ok := tab.Get(id)
	if !ok || r[0].Int64() != 1 {
		t.Errorf("Get = %v %v", r, ok)
	}
	if _, ok := tab.Get(id2); ok {
		t.Error("deleted row still readable")
	}
}

func TestIndexRangeAndDelete(t *testing.T) {
	ix := NewIndex("v", 0, false)
	for i := 0; i < 10; i++ {
		if err := ix.Insert(Int(int64(i%5)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ix.Lookup(Int(3))); got != 2 {
		t.Errorf("Lookup(3) returned %d ids", got)
	}
	if got := len(ix.Range(Int(1), true, Int(3), true)); got != 6 {
		t.Errorf("Range[1,3] returned %d ids", got)
	}
	if got := len(ix.Range(Null(), false, Null(), false)); got != 10 {
		t.Errorf("full range returned %d ids", got)
	}
	if !ix.Delete(Int(3), 3) {
		t.Error("delete of present entry failed")
	}
	if ix.Delete(Int(3), 3) {
		t.Error("double delete succeeded")
	}
	if got := len(ix.Lookup(Int(3))); got != 1 {
		t.Errorf("after delete Lookup(3) returned %d ids", got)
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	ix := NewIndex("v", 0, true)
	if err := ix.Insert(Int(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Int(1), 1); err == nil {
		t.Error("duplicate in unique index accepted")
	}
	// NULLs are exempt from uniqueness.
	if err := ix.Insert(Null(), 2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Null(), 3); err != nil {
		t.Errorf("second NULL rejected: %v", err)
	}
}

func TestBareAliasAndQualifiedStar(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT name sensor_name FROM sensors WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Columns[0] != "sensor_name" {
		t.Errorf("bare alias lost: %v", rs.Columns)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := newSensorDB(t)
	rs, err := db.Query(`SELECT deployment, COUNT(*) AS n FROM sensors
		WHERE deployment IS NOT NULL GROUP BY deployment ORDER BY n DESC, deployment`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][1].Int64() < rs.Rows[1][1].Int64() {
		t.Error("ORDER BY alias DESC not applied")
	}
}

// TestIndexedDeleteUpdate pins the keyed write path: ReplaceRows finds
// the rows to replace through the key column's index, deletes exactly
// those, inserts the new rows in the order given (fresh ascending row ids,
// so unordered scans see them last and in order), and touches no other
// key's rows.
func TestIndexedDeleteUpdate(t *testing.T) {
	db := NewDB()
	mustCreate(t, db, "ann", []Column{
		{Name: "page", Type: TypeText, NotNull: true},
		{Name: "property", Type: TypeText},
		{Name: "value", Type: TypeText},
	}, "page")
	mustCreate(t, db, "pages", []Column{pkCol("title", TypeText), {Name: "revs", Type: TypeInt}})
	for i := 0; i < 30; i++ {
		mustInsert(t, db, "ann", Row{Text(fmt.Sprintf("P%d", i%3)), Text(fmt.Sprintf("prop%d", i%5)), Text(fmt.Sprintf("v%d", i))})
	}
	mustInsert(t, db, "pages", Row{Text("P1"), Int(1)}, Row{Text("P2"), Int(1)})

	err := db.ReplaceRows(Text("P1"),
		RowSet{Table: "pages", Column: "title", Rows: []Row{{Text("P1"), Int(2)}}},
		RowSet{Table: "ann", Column: "page", Rows: []Row{
			{Text("P1"), Text("b"), Text("new1")},
			{Text("P1"), Text("a"), Text("new2")},
		}})
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		`SELECT property, value FROM ann WHERE page = 'P1'`:             "property,value\nTEXT:b,TEXT:new1\nTEXT:a,TEXT:new2\n",
		`SELECT COUNT(*) FROM ann WHERE page = 'P2'`:                    "count(*)\nINT:10\n",
		`SELECT title, revs FROM pages`:                                 "title,revs\nTEXT:P2,INT:1\nTEXT:P1,INT:2\n",
		`SELECT COUNT(*) FROM ann WHERE value = 'v1' OR value = 'new1'`: "count(*)\nINT:1\n",
	} {
		rs, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(rs); got != want {
			t.Errorf("%s:\n got %q\nwant %q", q, got, want)
		}
	}
	ann, _ := db.Table("ann")
	var ids []int64
	ann.Scan(func(id int64, row Row) bool {
		if row[0].Text0() == "P1" {
			ids = append(ids, id)
		}
		return true
	})
	if fmt.Sprint(ids) != "[30 31]" {
		t.Errorf("replacement row ids = %v, want [30 31]", ids)
	}
	// Replacing with no rows deletes; an absent key only inserts.
	if err := db.ReplaceRows(Text("P0"), RowSet{Table: "ann", Column: "page"}); err != nil {
		t.Fatal(err)
	}
	if err := db.ReplaceRows(Text("P9"), RowSet{Table: "ann", Column: "page", Rows: []Row{{Text("P9"), Null(), Null()}}}); err != nil {
		t.Fatal(err)
	}
	rs, _ := db.Query(`SELECT page, COUNT(*) FROM ann GROUP BY page ORDER BY page`)
	if got, want := renderResult(rs), "page,count(*)\nTEXT:P1,INT:2\nTEXT:P2,INT:10\nTEXT:P9,INT:1\n"; got != want {
		t.Errorf("after delete/insert-only replacements:\n got %q\nwant %q", got, want)
	}
}

// TestReplaceRowsIsAllOrNothing: a key column without an index, a table
// named twice, a row that fails validation or a unique violation — in any
// set — rejects the whole call before anything changes.
func TestReplaceRowsIsAllOrNothing(t *testing.T) {
	db := newSensorDB(t)
	before := func() string { return dumpTables(db) }
	want := before()
	// good is valid on its own: key 3 matches no deployment name, so it
	// only inserts.
	good := RowSet{Table: "deployments", Column: "name", Rows: []Row{{Text("zermatt"), Text("Zermatt")}}}
	for name, sets := range map[string][]RowSet{
		"unindexed key":      {good, {Table: "sensors", Column: "deployment"}},
		"table twice":        {good, good},
		"unknown column key": {good, {Table: "sensors", Column: "nope"}},
		"NOT NULL":           {good, {Table: "sensors", Column: "id", Rows: []Row{{Int(3), Null(), Null(), Null(), Null()}}}},
		"type mismatch":      {good, {Table: "sensors", Column: "id", Rows: []Row{{Int(3), Text("x"), Null(), Text("high"), Null()}}}},
		"short row":          {good, {Table: "sensors", Column: "id", Rows: []Row{{Int(3)}}}},
		// id 1 survives the replacement of key 3, so reusing it collides.
		"unique vs survivor": {good, {Table: "sensors", Column: "id", Rows: []Row{{Int(1), Text("x"), Null(), Null(), Null()}}}},
		"unique within rows": {good, {Table: "sensors", Column: "id", Rows: []Row{
			{Int(3), Text("x"), Null(), Null(), Null()},
			{Int(3), Text("y"), Null(), Null(), Null()},
		}}},
	} {
		if err := db.ReplaceRows(Int(3), sets...); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := before(); got != want {
			t.Fatalf("%s: rejected call changed the database", name)
		}
	}
	// The replaced key's own unique value may be reused: its old row goes.
	if err := db.ReplaceRows(Int(3), good, RowSet{Table: "sensors", Column: "id", Rows: []Row{{Int(3), Text("snow-08"), Null(), Null(), Null()}}}); err != nil {
		t.Fatalf("replacing a primary-key row in place: %v", err)
	}
	rs, _ := db.Query(`SELECT name FROM sensors WHERE id = 3`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "snow-08" {
		t.Errorf("replaced row = %v", rs.Rows)
	}
}

// dumpTables renders every table's live rows with their ids, in scan
// order: two databases with equal dumps answer every query identically.
func dumpTables(db *DB) string {
	var b strings.Builder
	for _, name := range db.TableNames() {
		tab, _ := db.Table(name)
		fmt.Fprintf(&b, "%s:\n", name)
		tab.Scan(func(id int64, row Row) bool {
			fmt.Fprintf(&b, "%d", id)
			for _, v := range row {
				if v.IsNull() {
					b.WriteString(" NULL")
				} else {
					fmt.Fprintf(&b, " %s:%q", v.Type(), v.String())
				}
			}
			b.WriteByte('\n')
			return true
		})
	}
	return b.String()
}

// TestLoadRejectsUniqueViolation covers the bulk-load error path: rows
// with a duplicate primary key — among themselves or against a row already
// present — fail cleanly and leave the table as it was, rows and indexes
// in agreement.
func TestLoadRejectsUniqueViolation(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("pages", []Column{
		{Name: "title", Type: TypeText, PrimaryKey: true},
		{Name: "namespace", Type: TypeText},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("pages", Row{Text("A"), Text("")}); err != nil {
		t.Fatal(err)
	}
	want := dumpTables(db)
	for name, rows := range map[string][]Row{
		"duplicate of a present row": {{Text("B"), Null()}, {Text("A"), Null()}},
		"duplicate within the load":  {{Text("B"), Null()}, {Text("B"), Null()}},
		"NULL primary key":           {{Text("B"), Null()}, {Null(), Null()}},
	} {
		if err := db.LoadRows("pages", rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := dumpTables(db); got != want {
			t.Fatalf("%s: rejected load changed the table:\n%s\nwant\n%s", name, got, want)
		}
	}
	if err := db.LoadRows("missing", nil); err == nil {
		t.Error("load into a missing table accepted")
	}
	// The failed loads rolled back: a clean load appends after the
	// present row, and the index agrees with the rows.
	if err := db.LoadRows("pages", []Row{{Text("B"), Text("x")}, {Text("C"), Null()}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("pages")
	idx, ok := tbl.Index("title")
	if !ok || tbl.NumRows() != 3 || idx.Len() != tbl.NumRows() {
		t.Fatalf("after clean load: %d rows, index holds %d", tbl.NumRows(), idx.Len())
	}
	rs, _ := db.Query(`SELECT title FROM pages`)
	if got, want := renderResult(rs), "title\nTEXT:A\nTEXT:B\nTEXT:C\n"; got != want {
		t.Errorf("scan order after load:\n got %q\nwant %q", got, want)
	}
}
