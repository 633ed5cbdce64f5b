package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refRow mirrors the engine's rows in plain Go for the oracle.
type refRow struct {
	id   int64
	name string
	val  float64
	flag bool
}

// TestSelectAgainstReferenceProperty fuzzes simple single-table SELECTs
// (random comparison predicates on indexed and unindexed columns, random
// ORDER BY and LIMIT) and compares the engine's answer with a direct Go
// evaluation over the same rows.
func TestSelectAgainstReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		db := NewDB()
		var indexes []string
		if rng.Intn(2) == 0 {
			indexes = append(indexes, "val")
		}
		mustCreate(t, db, "t", []Column{
			pkCol("id", TypeInt),
			{Name: "name", Type: TypeText},
			{Name: "val", Type: TypeFloat},
			{Name: "flag", Type: TypeBool},
		}, indexes...)
		n := 20 + rng.Intn(60)
		rows := make([]refRow, n)
		names := []string{"alpha", "beta", "gamma", "delta"}
		for i := 0; i < n; i++ {
			rows[i] = refRow{
				id:   int64(i),
				name: names[rng.Intn(len(names))],
				val:  float64(rng.Intn(100)),
				flag: rng.Intn(2) == 0,
			}
			mustInsert(t, db, "t", Row{Int(rows[i].id), Text(rows[i].name), Float(rows[i].val), Bool(rows[i].flag)})
		}

		// Random predicate.
		type pred struct {
			sql string
			fn  func(refRow) bool
		}
		preds := []pred{}
		cutoff := float64(rng.Intn(100))
		ops := []struct {
			sym string
			cmp func(a, b float64) bool
		}{
			{"<", func(a, b float64) bool { return a < b }},
			{"<=", func(a, b float64) bool { return a <= b }},
			{">", func(a, b float64) bool { return a > b }},
			{">=", func(a, b float64) bool { return a >= b }},
			{"=", func(a, b float64) bool { return a == b }},
			{"!=", func(a, b float64) bool { return a != b }},
		}
		op := ops[rng.Intn(len(ops))]
		preds = append(preds, pred{
			sql: fmt.Sprintf("val %s %g", op.sym, cutoff),
			fn:  func(r refRow) bool { return op.cmp(r.val, cutoff) },
		})
		if rng.Intn(2) == 0 {
			name := names[rng.Intn(len(names))]
			preds = append(preds, pred{
				sql: fmt.Sprintf("name = '%s'", name),
				fn:  func(r refRow) bool { return r.name == name },
			})
		}
		if rng.Intn(3) == 0 {
			preds = append(preds, pred{
				sql: "flag",
				fn:  func(r refRow) bool { return r.flag },
			})
		}
		var clauses []string
		for _, p := range preds {
			clauses = append(clauses, p.sql)
		}
		where := strings.Join(clauses, " AND ")

		query := fmt.Sprintf("SELECT id FROM t WHERE %s ORDER BY id", where)
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(10)
			query += fmt.Sprintf(" LIMIT %d", limit)
		}

		rs, err := db.Query(query)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, query, err)
		}
		var want []int64
		for _, r := range rows {
			keep := true
			for _, p := range preds {
				if !p.fn(r) {
					keep = false
					break
				}
			}
			if keep {
				want = append(want, r.id)
			}
		}
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		if len(rs.Rows) != len(want) {
			t.Fatalf("trial %d: %q returned %d rows, oracle %d", trial, query, len(rs.Rows), len(want))
		}
		for i := range want {
			if rs.Rows[i][0].Int64() != want[i] {
				t.Fatalf("trial %d: %q row %d = %v, oracle %d", trial, query, i, rs.Rows[i][0], want[i])
			}
		}
	}
}

// TestAggregateAgainstReferenceProperty fuzzes grouped aggregates.
func TestAggregateAgainstReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		db := NewDB()
		mustCreate(t, db, "t", []Column{{Name: "grp", Type: TypeText}, {Name: "val", Type: TypeInt}})
		groups := []string{"a", "b", "c"}
		sums := map[string]int64{}
		counts := map[string]int64{}
		n := 10 + rng.Intn(50)
		for i := 0; i < n; i++ {
			g := groups[rng.Intn(len(groups))]
			v := int64(rng.Intn(20))
			sums[g] += v
			counts[g]++
			mustInsert(t, db, "t", Row{Text(g), Int(v)})
		}
		rs, err := db.Query("SELECT grp, SUM(val), COUNT(*) FROM t GROUP BY grp ORDER BY grp")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != len(counts) {
			t.Fatalf("trial %d: %d groups, oracle %d", trial, len(rs.Rows), len(counts))
		}
		for _, row := range rs.Rows {
			g := row[0].Text0()
			if row[1].Int64() != sums[g] || row[2].Int64() != counts[g] {
				t.Fatalf("trial %d: group %s = (%v, %v), oracle (%d, %d)",
					trial, g, row[1], row[2], sums[g], counts[g])
			}
		}
	}
}
