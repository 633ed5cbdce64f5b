package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// createParentChild creates parent(pid INT PRIMARY KEY, label TEXT) and
// child(cid INT PRIMARY KEY, pid INT).
func createParentChild(t testing.TB, db *DB) {
	t.Helper()
	mustCreate(t, db, "parent", []Column{pkCol("pid", TypeInt), {Name: "label", Type: TypeText}})
	mustCreate(t, db, "child", []Column{pkCol("cid", TypeInt), {Name: "pid", Type: TypeInt}})
}

// TestHashJoinMatchesNestedLoop builds random parent/child tables and
// compares the hash-joinable equality form against a semantically equal
// condition the optimizer cannot hash (forcing the nested-loop path).
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		db := NewDB()
		createParentChild(t, db)
		nP, nC := 5+rng.Intn(10), 20+rng.Intn(30)
		for i := 0; i < nP; i++ {
			mustInsert(t, db, "parent", Row{Int(int64(i)), Text(fmt.Sprintf("p%d", i))})
		}
		for i := 0; i < nC; i++ {
			// Some children reference missing parents; some have NULL.
			ref := Null()
			if rng.Intn(5) > 0 {
				ref = Int(int64(rng.Intn(nP + 3)))
			}
			mustInsert(t, db, "child", Row{Int(int64(i)), ref})
		}

		// Hash path: plain equality.
		fast, err := db.Query(`SELECT c.cid, p.label FROM child c JOIN parent p ON c.pid = p.pid ORDER BY c.cid`)
		if err != nil {
			t.Fatal(err)
		}
		// Nested-loop path: the +0 arithmetic makes both sides reference
		// the joined table in a shape the hash planner rejects.
		slow, err := db.Query(`SELECT c.cid, p.label FROM child c JOIN parent p ON c.pid = p.pid + 0 ORDER BY c.cid`)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Rows) != len(slow.Rows) {
			t.Fatalf("trial %d: hash join %d rows, nested loop %d", trial, len(fast.Rows), len(slow.Rows))
		}
		for i := range fast.Rows {
			for j := range fast.Rows[i] {
				if fast.Rows[i][j].String() != slow.Rows[i][j].String() {
					t.Fatalf("trial %d row %d: %v vs %v", trial, i, fast.Rows[i], slow.Rows[i])
				}
			}
		}

		// LEFT JOIN parity between the two paths.
		fastL, err := db.Query(`SELECT c.cid, p.label FROM child c LEFT JOIN parent p ON c.pid = p.pid ORDER BY c.cid`)
		if err != nil {
			t.Fatal(err)
		}
		slowL, err := db.Query(`SELECT c.cid, p.label FROM child c LEFT JOIN parent p ON c.pid = p.pid + 0 ORDER BY c.cid`)
		if err != nil {
			t.Fatal(err)
		}
		if len(fastL.Rows) != nC || len(slowL.Rows) != nC {
			t.Fatalf("trial %d: left join rows %d/%d, want %d", trial, len(fastL.Rows), len(slowL.Rows), nC)
		}
		for i := range fastL.Rows {
			if fastL.Rows[i][1].String() != slowL.Rows[i][1].String() {
				t.Fatalf("trial %d left row %d: %v vs %v", trial, i, fastL.Rows[i], slowL.Rows[i])
			}
		}
	}
}

func TestHashJoinCrossTypeNumericKeys(t *testing.T) {
	db := NewDB()
	mustCreate(t, db, "a", []Column{{Name: "k", Type: TypeFloat}})
	mustCreate(t, db, "b", []Column{{Name: "k", Type: TypeInt}, {Name: "tag", Type: TypeText}})
	mustInsert(t, db, "a", Row{Float(2.0)}, Row{Float(3.5)})
	mustInsert(t, db, "b", Row{Int(2), Text("two")}, Row{Int(3), Text("three")})
	// 2.0 (float) must join with 2 (int).
	rs, err := db.Query(`SELECT b.tag FROM a JOIN b ON a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "two" {
		t.Errorf("cross-type join rows = %v", rs.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := NewDB()
	mustCreate(t, db, "site", []Column{pkCol("s", TypeText)})
	mustCreate(t, db, "dep", []Column{pkCol("d", TypeText), {Name: "s", Type: TypeText}})
	mustCreate(t, db, "sen", []Column{pkCol("n", TypeText), {Name: "d", Type: TypeText}})
	mustInsert(t, db, "site", Row{Text("davos")}, Row{Text("zermatt")})
	mustInsert(t, db, "dep", Row{Text("d1"), Text("davos")}, Row{Text("d2"), Text("zermatt")})
	mustInsert(t, db, "sen", Row{Text("s1"), Text("d1")}, Row{Text("s2"), Text("d1")}, Row{Text("s3"), Text("d2")})
	rs, err := db.Query(`SELECT sen.n, site.s FROM sen
		JOIN dep ON sen.d = dep.d
		JOIN site ON dep.s = site.s
		WHERE site.s = 'davos' ORDER BY sen.n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text0() != "s1" || rs.Rows[1][0].Text0() != "s2" {
		t.Errorf("three-way join rows = %v", rs.Rows)
	}
}

func BenchmarkJoinHashVsNestedLoop(b *testing.B) {
	db := NewDB()
	createParentChild(b, db)
	for i := 0; i < 200; i++ {
		mustInsert(b, db, "parent", Row{Int(int64(i)), Text(fmt.Sprintf("p%d", i))})
	}
	for i := 0; i < 1000; i++ {
		mustInsert(b, db, "child", Row{Int(int64(i)), Int(int64(i % 200))})
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM child c JOIN parent p ON c.pid = p.pid`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM child c JOIN parent p ON c.pid = p.pid + 0`); err != nil {
				b.Fatal(err)
			}
		}
	})
}
