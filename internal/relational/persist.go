package relational

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The snapshot format is plain JSON: self-describing, diffable, and good
// enough for metadata-scale data. The SMR snapshots on demand rather than
// journaling every write — the bulk loader re-imports idempotently, which is
// the recovery story the original wiki deployment had as well.

type snapshotValue struct {
	T string   `json:"t"`           // "null", "int", "float", "text", "bool"
	I int64    `json:"i,omitempty"` // int payload
	F *float64 `json:"f,omitempty"` // float payload (pointer keeps 0 distinct)
	S string   `json:"s,omitempty"` // text payload
	B bool     `json:"b,omitempty"` // bool payload
}

type snapshotColumn struct {
	Name       string `json:"name"`
	Type       string `json:"type"`
	NotNull    bool   `json:"not_null,omitempty"`
	Unique     bool   `json:"unique,omitempty"`
	PrimaryKey bool   `json:"primary_key,omitempty"`
}

type snapshotTable struct {
	Name    string            `json:"name"`
	Columns []snapshotColumn  `json:"columns"`
	Indexes []string          `json:"indexes"` // secondary index column names
	Rows    [][]snapshotValue `json:"rows"`
}

type snapshot struct {
	Version int             `json:"version"`
	Tables  []snapshotTable `json:"tables"`
}

func encodeValue(v Value) snapshotValue {
	if v.IsNull() {
		return snapshotValue{T: "null"}
	}
	switch v.Type() {
	case TypeInt:
		return snapshotValue{T: "int", I: v.Int64()}
	case TypeFloat:
		f := v.Float64()
		return snapshotValue{T: "float", F: &f}
	case TypeBool:
		return snapshotValue{T: "bool", B: v.Bool0()}
	default:
		return snapshotValue{T: "text", S: v.Text0()}
	}
}

func decodeValue(sv snapshotValue) (Value, error) {
	switch sv.T {
	case "null":
		return Null(), nil
	case "int":
		return Int(sv.I), nil
	case "float":
		if sv.F == nil {
			return Float(0), nil
		}
		return Float(*sv.F), nil
	case "bool":
		return Bool(sv.B), nil
	case "text":
		return Text(sv.S), nil
	default:
		return Value{}, fmt.Errorf("relational: unknown snapshot value type %q", sv.T)
	}
}

// Save writes a snapshot of the whole database.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot{Version: 1}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		st := snapshotTable{Name: t.Name}
		pkOrUnique := make(map[string]bool)
		for _, c := range t.Schema.Columns {
			st.Columns = append(st.Columns, snapshotColumn{
				Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull,
				Unique: c.Unique, PrimaryKey: c.PrimaryKey,
			})
			if c.PrimaryKey || c.Unique {
				pkOrUnique[c.Name] = true
			}
		}
		for col := range t.indexes {
			if !pkOrUnique[t.indexes[col].Column] {
				st.Indexes = append(st.Indexes, t.indexes[col].Column)
			}
		}
		// Map iteration order would leak into the bytes otherwise,
		// breaking the "two saves of the same DB are byte-identical"
		// contract the snapshot dedup and diffing story relies on.
		sort.Strings(st.Indexes)
		t.Scan(func(_ int64, row Row) bool {
			enc := make([]snapshotValue, len(row))
			for i, v := range row {
				enc[i] = encodeValue(v)
			}
			st.Rows = append(st.Rows, enc)
			return true
		})
		snap.Tables = append(snap.Tables, st)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for k := range db.tables {
		out = append(out, k)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Load restores a snapshot into an empty database. Loading into a non-empty
// database is an error to avoid silent merges.
func (db *DB) Load(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.tables) > 0 {
		return fmt.Errorf("relational: Load requires an empty database (%d tables present)", len(db.tables))
	}
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("relational: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return fmt.Errorf("relational: unsupported snapshot version %d", snap.Version)
	}
	for _, st := range snap.Tables {
		cols := make([]Column, len(st.Columns))
		for i, sc := range st.Columns {
			typ, err := ParseType(sc.Type)
			if err != nil {
				return err
			}
			cols[i] = Column{Name: sc.Name, Type: typ, NotNull: sc.NotNull, Unique: sc.Unique, PrimaryKey: sc.PrimaryKey}
		}
		if err := db.createTableLocked(st.Name, cols); err != nil {
			return err
		}
		t := db.tables[lowered(st.Name)]
		for _, col := range st.Indexes {
			if err := t.AddIndex(col); err != nil {
				return err
			}
		}
		rows := make([]Row, len(st.Rows))
		for ri, encRow := range st.Rows {
			row := make(Row, len(encRow))
			for i, sv := range encRow {
				v, err := decodeValue(sv)
				if err != nil {
					return err
				}
				row[i] = v
			}
			rows[ri] = row
		}
		// Bulk insert: indexes are built once per table, not per row — a
		// restore is O(rows log rows), not quadratic in the corpus.
		if err := t.loadRows(rows); err != nil {
			return fmt.Errorf("relational: restoring %s: %w", st.Name, err)
		}
	}
	return nil
}

func lowered(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// SaveFile snapshots the database to a file path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile restores a snapshot from a file path.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Load(f)
}
