package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/explain"
)

// DB is an embedded relational database: a set of named tables guarded by a
// single readers–writer lock. SQL is read-only and enters through Query,
// QueryWith, Explain and EstimateSelect; rows are written through the typed
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

// TableNames returns the table names sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
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

// Query runs a SELECT and returns its rows.
func (db *DB) Query(sql string) (*ResultSet, error) {
	rs, _, err := db.QueryWith(sql, QueryOptions{})
	return rs, err
}

// QueryOptions tunes how a SELECT is planned and reported.
type QueryOptions struct {
	// ForceFallback compiles the written-order scan-everything baseline:
	// no index access, no pushdown, no join reordering, always
	// sort-after-materialize. It exists for planner ablation (benchmarks and
	// the equivalence property test) and must return byte-identical results.
	ForceFallback bool
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
	p, err := db.compileSelect(sel, opts.ForceFallback)
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

// Explain plans and executes a SELECT, returning the plan tree with both
// estimated and actual row counts per node.
func (db *DB) Explain(sql string) (*explain.Node, error) {
	_, plan, err := db.QueryWith(sql, QueryOptions{Explain: true})
	return plan, err
}

// EstimateSelect compiles a SELECT without executing it and returns the
// planner's estimated output row count. The combined-query layer uses it to
// pick the cheapest driving side.
func (db *DB) EstimateSelect(sql string) (int, error) {
	sel, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.compileSelect(sel, false)
	if err != nil {
		return 0, err
	}
	if p.explainRoot.Est < 0 {
		return 0, nil
	}
	return p.explainRoot.Est, nil
}

// PlannerStats snapshots the planner's activity counters and estimate-error
// quantiles.
func (db *DB) PlannerStats() PlannerStats {
	return db.planner.snapshot()
}
