package relational

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/explain"
)

// DB is an embedded relational database: a set of named tables guarded by a
// single readers–writer lock. SQL is read-only and enters through Query and
// QueryWith; rows are written through the typed
// calls Insert, ReplaceRows and LoadRows.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// planner aggregates planning/execution counters; it carries its own
	// mutex so read-locked queries can record concurrently.
	planner plannerStats
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates a table programmatically.
func (db *DB) CreateTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createTableLocked(name, cols)
}

func (db *DB) createTableLocked(name string, cols []Column) error {
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("relational: table %q already exists", name)
	}
	schema, err := NewSchema(cols)
	if err != nil {
		return err
	}
	db.tables[key] = NewTable(name, schema)
	return nil
}

// Table returns the named table (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Insert adds a row programmatically (values in schema order).
func (db *DB) Insert(table string, row Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("relational: no table %q", table)
	}
	return t.Insert(row)
}

// LoadRows bulk-appends rows to a table under the write lock — the
// snapshot restore path. Each index is rebuilt once from the full table
// instead of being maintained per row, so a restore is O(rows log rows).
// On any error, including a unique violation, the table is left as it was.
func (db *DB) LoadRows(table string, rows []Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("relational: no table %q", table)
	}
	return t.loadRows(rows)
}

// RowSet is one table's part of a ReplaceRows call: the rows whose Column
// equals the key are replaced by Rows (values in schema order).
type RowSet struct {
	Table, Column string
	Rows          []Row
}

// ReplaceRows is the typed write path for keyed rows, such as all rows a
// page projects. Under one write-lock hold it validates and coerces every
// new row of every set, then per set deletes the rows whose Column equals
// key, in ascending row-id order, and inserts Rows in the order given.
// Readers never see a key half replaced, and a call that fails changes
// nothing. Column must be indexed — a missing index is an error, never a
// scan — and each table may appear in only one set.
func (db *DB) ReplaceRows(key Value, sets ...RowSet) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	type step struct {
		t      *Table
		doomed []int64
		rows   []Row
	}
	steps := make([]step, len(sets))
	for i, set := range sets {
		t, ok := db.tables[strings.ToLower(set.Table)]
		if !ok {
			return fmt.Errorf("relational: no table %q", set.Table)
		}
		for _, prev := range steps[:i] {
			if prev.t == t {
				return fmt.Errorf("relational: table %s appears twice in one ReplaceRows", t.Name)
			}
		}
		idx, ok := t.Index(set.Column)
		if !ok {
			return fmt.Errorf("relational: ReplaceRows needs an index on %s.%s", t.Name, set.Column)
		}
		doomed := idx.Lookup(key)
		slices.Sort(doomed)
		rows, err := t.validateReplacement(doomed, set.Rows)
		if err != nil {
			return err
		}
		steps[i] = step{t: t, doomed: doomed, rows: rows}
	}
	for _, s := range steps {
		for _, id := range s.doomed {
			s.t.Delete(id)
		}
		for _, row := range s.rows {
			s.t.insertRow(row)
		}
	}
	return nil
}

// IndexKeys returns the distinct values of the indexed column col of table
// in ascending order, NULL first, read from the index alone: what SELECT
// DISTINCT col FROM table ORDER BY col returns, without SQL text.
func (db *DB) IndexKeys(table, col string) ([]Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, idx, err := db.indexOn(table, col)
	if err != nil {
		return nil, err
	}
	var out []Value
	for p := 0; p < idx.n; p = idx.searchAfter(out[len(out)-1]) {
		out = append(out, idx.at(p).key)
	}
	return out, nil
}

// DistinctWhere returns the distinct values of column col in the rows of
// table whose indexed column keyCol equals key, in ascending order, NULL
// first: what SELECT DISTINCT col FROM table WHERE keyCol = key ORDER BY
// col returns, without SQL text.
func (db *DB) DistinctWhere(table, col, keyCol string, key Value) ([]Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, idx, err := db.indexOn(table, keyCol)
	if err != nil {
		return nil, err
	}
	pos, ok := t.Schema.ColumnIndex(col)
	if !ok {
		return nil, fmt.Errorf("relational: no column %q in table %s", col, t.Name)
	}
	var out []Value
	idx.eachEq(key, func(id int64) bool {
		if row, live := t.Get(id); live {
			out = append(out, row[pos])
		}
		return true
	})
	slices.SortFunc(out, Compare)
	return slices.CompactFunc(out, func(a, b Value) bool { return Compare(a, b) == 0 }), nil
}

// indexOn finds table and its index on col. The caller holds db.mu.
func (db *DB) indexOn(table, col string) (*Table, *Index, error) {
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return nil, nil, fmt.Errorf("relational: no table %q", table)
	}
	idx, ok := t.Index(col)
	if !ok {
		return nil, nil, fmt.Errorf("relational: no index on %s.%s", t.Name, col)
	}
	return t, idx, nil
}

// Query runs a SELECT and returns its rows.
func (db *DB) Query(sql string) (*ResultSet, error) {
	rs, _, err := db.QueryWith(sql, QueryOptions{})
	return rs, err
}

// QueryOptions tunes how a SELECT is planned and reported.
type QueryOptions struct {
	// Explain attaches the executed plan tree (with actual row counts) to
	// the result.
	Explain bool
}

// QueryWith runs a SELECT with explicit planner options. The returned plan
// tree is nil unless opts.Explain is set.
func (db *DB) QueryWith(sql string, opts QueryOptions) (*ResultSet, *explain.Node, error) {
	sel, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.compileSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	rs, err := db.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	if !opts.Explain {
		return rs, nil, nil
	}
	return rs, p.explainRoot, nil
}

// PlannerStats snapshots the planner's activity counters and estimate-error
// quantiles.
func (db *DB) PlannerStats() PlannerStats {
	return db.planner.snapshot()
}
