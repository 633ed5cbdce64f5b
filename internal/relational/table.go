package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       Type
	NotNull    bool
	Unique     bool
	PrimaryKey bool
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema and validates column names are unique and at
// most one primary key exists.
func NewSchema(cols []Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	pk := 0
	for i, c := range cols {
		name := strings.ToLower(c.Name)
		if name == "" {
			return nil, fmt.Errorf("relational: empty column name at position %d", i)
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("relational: duplicate column %q", c.Name)
		}
		s.byName[name] = i
		if c.PrimaryKey {
			pk++
		}
	}
	if pk > 1 {
		return nil, fmt.Errorf("relational: %d primary keys declared", pk)
	}
	return s, nil
}

// ColumnIndex returns the position of a column (case-insensitive).
func (s *Schema) ColumnIndex(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Row is one tuple, positionally matching the schema.
type Row []Value

// Table is a heap of rows plus secondary indexes. Rows are addressed by a
// stable insertion id; deleted ids leave tombstones so index entries can be
// dropped lazily-free (we drop eagerly, the tombstone only keeps ids stable).
type Table struct {
	Name    string
	Schema  *Schema
	rows    map[int64]Row
	nextID  int64
	indexes map[string]*Index // keyed by lower-case column name
}

// NewTable creates an empty table. Primary-key and UNIQUE columns get an
// index automatically.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{
		Name:    name,
		Schema:  schema,
		rows:    make(map[int64]Row),
		indexes: make(map[string]*Index),
	}
	for _, c := range schema.Columns {
		if c.PrimaryKey || c.Unique {
			t.ensureIndex(c.Name, true)
		}
	}
	return t
}

func (t *Table) ensureIndex(col string, unique bool) *Index {
	key := strings.ToLower(col)
	if idx, ok := t.indexes[key]; ok {
		if unique {
			idx.Unique = true
		}
		return idx
	}
	pos, _ := t.Schema.ColumnIndex(col)
	idx := NewIndex(col, pos, unique)
	t.indexes[key] = idx
	return idx
}

// AddIndex creates a (non-unique) secondary index over an existing column
// and backfills it from current rows in one bulk build, which orders equal
// keys by id as inserting the rows one by one in id order would.
func (t *Table) AddIndex(col string) error {
	pos, ok := t.Schema.ColumnIndex(col)
	if !ok {
		return fmt.Errorf("relational: no column %q in table %s", col, t.Name)
	}
	key := strings.ToLower(col)
	if _, dup := t.indexes[key]; dup {
		return fmt.Errorf("relational: index on %s.%s already exists", t.Name, col)
	}
	idx := NewIndex(col, pos, false)
	if err := idx.bulkBuild(t.rows); err != nil {
		return err
	}
	t.indexes[key] = idx
	return nil
}

// Index returns the index on col, if any.
func (t *Table) Index(col string) (*Index, bool) {
	idx, ok := t.indexes[strings.ToLower(col)]
	return idx, ok
}

// NumRows returns the live row count.
func (t *Table) NumRows() int { return len(t.rows) }

// validate coerces row values to the schema and checks constraints that do
// not need index lookups.
func (t *Table) validate(row Row) (Row, error) {
	if len(row) != len(t.Schema.Columns) {
		return nil, fmt.Errorf("relational: %s expects %d values, got %d", t.Name, len(t.Schema.Columns), len(row))
	}
	out := make(Row, len(row))
	for i, c := range t.Schema.Columns {
		v, err := Coerce(row[i], c.Type)
		if err != nil {
			return nil, fmt.Errorf("%w (column %s)", err, c.Name)
		}
		if v.IsNull() && (c.NotNull || c.PrimaryKey) {
			return nil, fmt.Errorf("relational: NULL in NOT NULL column %s.%s", t.Name, c.Name)
		}
		out[i] = v
	}
	return out, nil
}

// Insert appends a row, maintaining all indexes. It returns the new row id.
func (t *Table) Insert(row Row) (int64, error) {
	rows, err := t.validateReplacement(nil, []Row{row})
	if err != nil {
		return 0, err
	}
	return t.insertRow(rows[0]), nil
}

// validateReplacement validates rows as they would stand once the rows
// with ids in doomed are deleted: every row is coerced and checked by
// validate, and no non-NULL value of a unique column may repeat among the
// new rows or appear in a surviving row. Nothing is modified, so a caller
// that checks first and then applies cannot fail half way.
func (t *Table) validateReplacement(doomed []int64, rows []Row) ([]Row, error) {
	out := make([]Row, len(rows))
	for i, row := range rows {
		v, err := t.validate(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	for _, idx := range t.indexes {
		if !idx.Unique {
			continue
		}
		for i, row := range out {
			v := row[idx.Pos]
			if v.IsNull() {
				continue
			}
			clash := slices.ContainsFunc(out[:i], func(prev Row) bool { return Compare(prev[idx.Pos], v) == 0 })
			for _, id := range idx.Lookup(v) {
				clash = clash || !slices.Contains(doomed, id)
			}
			if clash {
				return nil, fmt.Errorf("relational: duplicate value %s for unique column %s.%s",
					v, t.Name, idx.Column)
			}
		}
	}
	return out, nil
}

// insertRow appends a row that validateReplacement accepted and indexes
// it under a fresh id, which it returns.
func (t *Table) insertRow(row Row) int64 {
	id := t.nextID
	t.nextID++
	t.rows[id] = row
	for _, idx := range t.indexes {
		// Cannot fail: the only Insert error is a unique violation,
		// which validateReplacement has ruled out.
		_ = idx.Insert(row[idx.Pos], id)
	}
	return id
}

// loadRows bulk-inserts many rows (DB.LoadRows). Every row
// is validated and appended, then each index is rebuilt once from the full
// row map instead of being maintained per insert. On any error (including
// a unique violation) the table is restored to its prior state.
func (t *Table) loadRows(rows []Row) error {
	validated := make([]Row, len(rows))
	for i, row := range rows {
		v, err := t.validate(row)
		if err != nil {
			return err
		}
		validated[i] = v
	}
	start := t.nextID
	for i, row := range validated {
		t.rows[start+int64(i)] = row
	}
	t.nextID = start + int64(len(validated))
	for _, idx := range t.indexes {
		if err := idx.bulkBuild(t.rows); err != nil {
			for i := range validated {
				delete(t.rows, start+int64(i))
			}
			t.nextID = start
			for _, fix := range t.indexes {
				fix.bulkBuild(t.rows) // restore from the surviving rows
			}
			return err
		}
	}
	return nil
}

// Delete removes the row with the given id. It reports whether it existed.
func (t *Table) Delete(id int64) bool {
	row, ok := t.rows[id]
	if !ok {
		return false
	}
	for _, idx := range t.indexes {
		idx.Delete(row[idx.Pos], id)
	}
	delete(t.rows, id)
	return true
}

// Get returns the row with the given id.
func (t *Table) Get(id int64) (Row, bool) {
	r, ok := t.rows[id]
	return r, ok
}

// Scan calls fn for every live row in ascending id order (deterministic).
// fn returning false stops the scan.
func (t *Table) Scan(fn func(id int64, row Row) bool) {
	ids := make([]int64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(id, t.rows[id]) {
			return
		}
	}
}
