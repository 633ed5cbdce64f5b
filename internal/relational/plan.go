package relational

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/explain"
)

// Plan node operator names. These are the vocabulary of EXPLAIN output and
// are pinned by golden tests — rename deliberately.
const (
	opTableScan        = "TableScan"
	opIndexScan        = "IndexScan"
	opOrderedIndexScan = "OrderByIndex"
	opHashJoin         = "HashJoin"
	opNestedLoop       = "NestedLoop"
	opFilter           = "Filter"
	opRestoreOrder     = "RestoreOrder"
	opProject          = "Project"
	opGroupAggregate   = "GroupAggregate"
	opDistinct         = "Distinct"
	opSort             = "OrderBySort"
	opLimit            = "Limit"
)

// planBind is one table slot of a select plan, in execution (join) order.
// srcPos is the slot's position in the written FROM/JOIN order; it differs
// from the slice index when the planner reordered joins.
type planBind struct {
	name   string
	schema *Schema
	srcPos int
}

// emitFn receives one joined row from a plan node: rows[i] is the row of
// bind slot i for the slots the node has bound (nil for the NULL-extended
// side of a LEFT JOIN) and ids[i] its table id (-1 when NULL-extended).
// Both slices are scratch the producer reuses for its next row: a consumer
// that keeps a row copies it.
type emitFn func(rows []Row, ids []int64) error

// planNode pushes joined rows to a consumer. Each node of a plan runs
// exactly once per query; run fills the node's explain Act count as a side
// effect.
//
// Rows stream through the whole plan, yet errors come out as they did when
// every node ran to completion before its consumer started: a node returns
// its own first error at once, and when its consumer fails it stops
// emitting but finishes its own work (sink), so that an error of its own,
// and the counts of every node below, still come first.
type planNode interface {
	run(db *DB, emit emitFn) error
	enode() *explain.Node
}

// sink forwards rows to a consumer until the consumer fails, then drops
// them and keeps its first error.
type sink struct {
	emit emitFn
	err  error
}

func (s *sink) put(rows []Row, ids []int64) {
	if s.err == nil {
		s.err = s.emit(rows, ids)
	}
}

// finishNode records a node's actual row count and feeds the planner's
// estimate-quality sample.
func (db *DB) finishNode(en *explain.Node, act int) {
	en.Act = act
	db.planner.countNode(en.Op)
	db.planner.observe(en.Est, act)
}

// passes reports whether every condition holds on rows, in order, with
// AND short-circuit semantics.
func passes(conds []evalFn, rows []Row) (bool, error) {
	for _, c := range conds {
		v, err := c(rows)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !truthy(v) {
			return false, nil
		}
	}
	return true, nil
}

// --- scan nodes ---

// indexCond is one WHERE conjunct an index can answer: an equality lookup
// or a (possibly half-open) range. est is the exact entry count at plan
// time, which doubles as the access-path cost.
type indexCond struct {
	idx          *Index
	eq           Value
	isEq         bool
	lo, hi       Value
	hasLo, hasHi bool
	est          int
	desc         string
	conj         Expr // the WHERE conjunct answered
}

// lookup returns the matching row ids in ascending order.
func (c *indexCond) lookup() []int64 {
	if c.isEq {
		var ids []int64
		c.idx.eachEq(c.eq, func(id int64) bool {
			ids = append(ids, id)
			return true
		})
		return ids
	}
	ids := c.idx.Range(c.lo, c.hasLo, c.hi, c.hasHi)
	slices.Sort(ids)
	return ids
}

// scanNode produces the rows of one table slot: through an intersection of
// index conjuncts when the planner found usable ones, a full scan
// otherwise, with pushed-down single-table filters applied inline. Rows are
// always produced in ascending id order (the canonical order).
type scanNode struct {
	bind    int
	table   *Table
	conds   []indexCond // empty => full scan; else intersected, most selective first
	filters []evalFn    // pushed-down conjuncts over the slot's row alone, less those an equality lookup answers
	en      *explain.Node
}

func (sn *scanNode) enode() *explain.Node { return sn.en }

// each calls fn with every row of the slot that passes the pushed filters,
// in ascending id order, and returns how many there were. It is the single
// place plan execution touches Table.Scan. A lone equality conjunct is
// read in place from its index run.
func (sn *scanNode) each(fn func(id int64, row Row)) (int, error) {
	n := 0
	one := make([]Row, 1)
	visit := func(id int64, row Row) error {
		one[0] = row
		ok, err := passes(sn.filters, one)
		if ok {
			n++
			fn(id, row)
		}
		return err
	}
	var err error
	fetch := func(id int64) bool {
		if row, live := sn.table.Get(id); live {
			err = visit(id, row)
		}
		return err == nil
	}
	switch {
	case len(sn.conds) == 0:
		sn.table.Scan(func(id int64, row Row) bool {
			err = visit(id, row)
			return err == nil
		})
	case len(sn.conds) == 1 && sn.conds[0].isEq:
		sn.conds[0].idx.eachEq(sn.conds[0].eq, fetch)
	default:
		cand := sn.conds[0].lookup()
		for _, c := range sn.conds[1:] {
			if len(cand) == 0 {
				break
			}
			cand = intersectSorted(cand, c.lookup())
		}
		for _, id := range cand {
			if !fetch(id) {
				break
			}
		}
	}
	return n, err
}

func (sn *scanNode) run(db *DB, emit emitFn) error {
	out := sink{emit: emit}
	rows, ids := make([]Row, 1), make([]int64, 1)
	n, err := sn.each(func(id int64, row Row) {
		rows[0], ids[0] = row, id
		out.put(rows, ids)
	})
	if err != nil {
		return err
	}
	db.finishNode(sn.en, n)
	return out.err
}

// fetch materializes the slot's rows for the right side of a join. The
// join records the node's count once its left side has run, the order in
// which the planner's statistics have always observed the two.
func (sn *scanNode) fetch() ([]int64, []Row, error) {
	var ids []int64
	var rows []Row
	_, err := sn.each(func(id int64, row Row) {
		ids = append(ids, id)
		rows = append(rows, row)
	})
	return ids, rows, err
}

// intersectSorted merges two ascending id slices into their intersection.
func intersectSorted(a, b []int64) []int64 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// orderedScanNode walks a sorted index in ORDER BY direction, applying the
// residual WHERE per row and stopping after the first limit+offset
// survivors — the index-backed ORDER BY with LIMIT pushdown path. Equal
// keys come out in ascending id order (what a stable sort over the
// canonical scan would produce), and NULL keys participate exactly where
// Compare sorts them (first ascending, last descending).
type orderedScanNode struct {
	table *Table
	idx   *Index
	desc  bool
	where evalFn // full residual WHERE over the table's row alone; nil when none
	stop  int    // emit at most this many rows; -1 = all
	en    *explain.Node
}

func (on *orderedScanNode) enode() *explain.Node { return on.en }

func (on *orderedScanNode) run(db *DB, emit emitFn) error {
	out := sink{emit: emit}
	rows, ids := make([]Row, 1), make([]int64, 1)
	n := 0
	var walkErr error
	on.idx.Walk(on.desc, func(_ Value, run []int64) bool {
		for _, id := range run {
			row, live := on.table.Get(id)
			if !live {
				continue
			}
			rows[0], ids[0] = row, id
			if on.where != nil {
				v, err := on.where(rows)
				if err != nil {
					walkErr = err
					return false
				}
				if v.IsNull() || !truthy(v) {
					continue
				}
			}
			n++
			out.put(rows, ids)
			if on.stop >= 0 && n >= on.stop {
				return false
			}
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	db.finishNode(on.en, n)
	return out.err
}

// --- join node ---

// joinNode joins the rows of its left side, which bind slots [0, lw), with
// one more table slot lw = right.bind. With hash=true it hashes one side
// (chosen by estimated size) on the equi-join key; otherwise it
// nested-loops over the materialized right rows. conds are residual join
// predicates checked per candidate pair, in order, with AND short-circuit
// semantics.
type joinNode struct {
	left      planNode
	right     *scanNode
	leftOuter bool
	hash      bool
	probe     evalFn // hash: over the left slots
	buildCol  int    // hash: key column position in the right table
	buildLeft bool   // hash the left side, probe with right rows
	conds     []evalFn
	en        *explain.Node
}

func (jn *joinNode) enode() *explain.Node { return jn.en }

// joinKey is a hash-join key with =-compatible equality: numerics collapse
// to one spelling regardless of int/float type.
type joinKey struct {
	typ Type
	s   string
}

func joinKeyOf(v Value) joinKey {
	if v.IsNumeric() {
		return joinKey{TypeFloat, Float(v.Float64()).String()}
	}
	return joinKey{v.Type(), v.String()}
}

func (jn *joinNode) run(db *DB, emit emitFn) error {
	rids, rrows, err := jn.right.fetch()
	if err != nil {
		return err
	}
	lw := jn.right.bind
	out := sink{emit: emit}
	rows, ids := make([]Row, lw+1), make([]int64, lw+1)
	n := 0
	put := func(row Row, id int64) {
		rows[lw], ids[lw] = row, id
		n++
		out.put(rows, ids)
	}
	// candidates checks the right rows ris the left prefix bound in rows
	// may pair with, emits the pairs that pass, and NULL-extends a LEFT
	// JOIN row that found none.
	candidates := func(ris []int32) error {
		emitted := false
		for _, ri := range ris {
			rows[lw] = rrows[ri]
			ok, err := passes(jn.conds, rows)
			if err != nil {
				return err
			}
			if ok {
				put(rrows[ri], rids[ri])
				emitted = true
			}
		}
		if !emitted && jn.leftOuter {
			put(nil, -1)
		}
		return nil
	}

	// own is the join's first error inside its left side's run, which the
	// left side hands back once it finished its own work.
	var own error
	var step func(lrows []Row, lids []int64) error
	var lflat []Row
	var lidFlat []int64
	var buildIdx map[joinKey][]int32
	switch {
	case jn.hash && !jn.buildLeft:
		// Build over the right rows, probe with each left row. Matches are
		// emitted in ascending right-id order, so written-order plans stay
		// canonical.
		buildIdx = make(map[joinKey][]int32, len(rrows))
		for i, row := range rrows {
			if v := row[jn.buildCol]; !v.IsNull() {
				k := joinKeyOf(v)
				buildIdx[k] = append(buildIdx[k], int32(i))
			}
		}
		step = func(lrows []Row, lids []int64) error {
			copy(rows, lrows)
			copy(ids, lids)
			pv, err := jn.probe(rows)
			if err != nil {
				return err
			}
			var matches []int32
			if !pv.IsNull() {
				matches = buildIdx[joinKeyOf(pv)]
			}
			return candidates(matches)
		}
	case jn.hash:
		// Build over the (smaller) left rows keyed by the probe value,
		// then stream the right rows through. Emission is right-major, so
		// the plan carries a RestoreOrder node downstream.
		buildIdx = make(map[joinKey][]int32)
		step = func(lrows []Row, lids []int64) error {
			i := int32(len(lidFlat) / lw)
			lflat = append(lflat, lrows...)
			lidFlat = append(lidFlat, lids...)
			pv, err := jn.probe(lrows)
			if err != nil {
				return err
			}
			if !pv.IsNull() {
				k := joinKeyOf(pv)
				buildIdx[k] = append(buildIdx[k], i)
			}
			return nil
		}
	default:
		// Nested loop over the materialized right rows.
		all := make([]int32, len(rrows))
		for i := range all {
			all[i] = int32(i)
		}
		step = func(lrows []Row, lids []int64) error {
			copy(rows, lrows)
			copy(ids, lids)
			return candidates(all)
		}
	}
	err = jn.left.run(db, func(lrows []Row, lids []int64) error {
		if err := step(lrows, lids); err != nil {
			own = err
			return err
		}
		return nil
	})
	if err != nil && err != own {
		return err
	}
	db.finishNode(jn.right.en, len(rrows))
	if own != nil {
		return own
	}
	if jn.hash && jn.buildLeft {
		var matched []bool
		if jn.leftOuter {
			matched = make([]bool, len(lidFlat)/lw)
		}
		bindLeft := func(li int32) {
			copy(rows[:lw], lflat[int(li)*lw:])
			copy(ids[:lw], lidFlat[int(li)*lw:])
		}
		for ri, row := range rrows {
			v := row[jn.buildCol]
			if v.IsNull() {
				continue
			}
			for _, li := range buildIdx[joinKeyOf(v)] {
				bindLeft(li)
				rows[lw] = row
				ok, err := passes(jn.conds, rows)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				put(row, rids[ri])
				if matched != nil {
					matched[li] = true
				}
			}
		}
		for li := range matched {
			if !matched[li] {
				bindLeft(int32(li))
				put(nil, -1)
			}
		}
	}
	db.finishNode(jn.en, n)
	return out.err
}

// --- filter / restore ---

// filterNode applies the WHERE conjuncts that no scan below applied
// (conds, in written order; none when every conjunct was pushed down) to
// the joined rows, LEFT JOIN NULL extension included.
type filterNode struct {
	child planNode
	conds []evalFn
	en    *explain.Node
}

func (fn *filterNode) enode() *explain.Node { return fn.en }

func (fn *filterNode) run(db *DB, emit emitFn) error {
	out := sink{emit: emit}
	kept := 0
	err := fn.child.run(db, func(rows []Row, ids []int64) error {
		ok, err := passes(fn.conds, rows)
		if ok {
			kept++
			out.put(rows, ids)
		}
		return err
	})
	if err != nil {
		return err
	}
	fn.en.Act = kept
	db.planner.observe(fn.en.Est, kept)
	return out.err
}

// restoreNode re-sorts surviving rows into the canonical written-order id
// tuple (base table major). It exists so join reordering and build-side
// swaps are invisible in results: every plan emits rows in the same order
// the written-order plan would, byte for byte.
type restoreNode struct {
	child planNode
	width int // bind slots per row
	// slotOrder lists bind slots in written-source order, major to minor.
	slotOrder []int
	en        *explain.Node
}

func (rn *restoreNode) enode() *explain.Node { return rn.en }

func (rn *restoreNode) run(db *DB, emit emitFn) error {
	var flat []Row
	var flatIDs []int64
	err := rn.child.run(db, func(rows []Row, ids []int64) error {
		flat = append(flat, rows...)
		flatIDs = append(flatIDs, ids...)
		return nil
	})
	if err != nil {
		return err
	}
	w := rn.width
	order := make([]int, len(flatIDs)/w)
	for i := range order {
		order[i] = i * w
	}
	sort.SliceStable(order, func(a, b int) bool {
		for _, slot := range rn.slotOrder {
			ai, bi := flatIDs[order[a]+slot], flatIDs[order[b]+slot]
			if ai != bi {
				return ai < bi
			}
		}
		return false
	})
	rn.en.Act = len(order)
	out := sink{emit: emit}
	for _, at := range order {
		out.put(flat[at:at+w], flatIDs[at:at+w])
	}
	return out.err
}

// --- the compiled plan and its output stage ---

// selectPlan is a compiled SELECT: a tree of row-producing nodes plus the
// compiled projection/grouping/ordering output stage, compiled once per
// statement and executed once.
type selectPlan struct {
	stmt  *SelectStmt
	binds []planBind
	root  planNode

	colNames []string
	grouped  bool
	out      outputExprs
	groupBy  []evalFn // over every bind slot
	// emptyGroup compiles the output of the one row a global aggregate
	// yields over no input: only the written base table is bound, to a NULL
	// row, and every aggregate folds nothing.
	emptyGroup func() outputExprs

	// preOrdered marks a root that already emits rows in ORDER BY order
	// (the OrderByIndex path), making the sort stage a no-op.
	preOrdered bool

	enProject  *explain.Node
	enDistinct *explain.Node
	enSort     *explain.Node
	enLimit    *explain.Node

	explainRoot *explain.Node
}

// outputExprs is the compiled output stage for one scope: HAVING (nil when
// absent), the projections, the ORDER BY keys and, in a grouped query, the
// aggregate calls they read.
type outputExprs struct {
	having evalFn
	proj   []evalFn
	keys   []orderKey
	aggs   *aggSet
}

// orderKey is one ORDER BY key: a projected column (an unqualified key
// naming a projection label sorts on the projected value) or an expression.
type orderKey struct {
	col int // projected column, or -1
	fn  evalFn
}

// slotOfWritten returns bind slots indexed by written source position.
func (p *selectPlan) slotOfWritten() []int {
	out := make([]int, len(p.binds))
	for slot, b := range p.binds {
		out[b.srcPos] = slot
	}
	return out
}

// project evaluates one output row and its ORDER BY keys.
func (o *outputExprs) project(rows []Row) (Row, []Value, error) {
	row := make(Row, len(o.proj))
	for i, f := range o.proj {
		v, err := f(rows)
		if err != nil {
			return nil, nil, err
		}
		row[i] = v
	}
	if len(o.keys) == 0 {
		return row, nil, nil
	}
	keys := make([]Value, len(o.keys))
	for i, k := range o.keys {
		if k.col >= 0 {
			keys[i] = row[k.col]
			continue
		}
		v, err := k.fn(rows)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = v
	}
	return row, keys, nil
}

// runPlan executes a compiled plan. Callers hold at least a read lock.
// Rows stream from the root into the output stage: projected one by one,
// or folded into their group's aggregates, so a grouped query holds one
// representative row and one accumulator per aggregate call per group,
// never its member rows.
func (db *DB) runPlan(p *selectPlan) (*ResultSet, error) {
	s := p.stmt
	var outRows []Row
	var orderKeys [][]Value
	emitRow := func(o *outputExprs, rows []Row) error {
		row, keys, err := o.project(rows)
		if err != nil {
			return err
		}
		outRows = append(outRows, row)
		if keys != nil {
			orderKeys = append(orderKeys, keys)
		}
		return nil
	}

	if !p.grouped {
		if err := p.root.run(db, func(rows []Row, _ []int64) error { return emitRow(&p.out, rows) }); err != nil {
			return nil, err
		}
	} else {
		groups := make(map[string]*group)
		var order []*group
		var kv []Value
		var kbuf, dkey []byte
		err := p.root.run(db, func(rows []Row, _ []int64) error {
			kv = kv[:0]
			for _, f := range p.groupBy {
				v, err := f(rows)
				if err != nil {
					return err
				}
				kv = append(kv, v)
			}
			kbuf = appendRowKey(kbuf[:0], kv)
			g, ok := groups[string(kbuf)]
			if !ok {
				g = &group{rep: slices.Clone(rows), accs: make([]acc, len(p.out.aggs.calls))}
				groups[string(kbuf)] = g
				order = append(order, g)
			}
			for i, c := range p.out.aggs.calls {
				c.fold(&g.accs[i], rows, &dkey)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		o := p.out
		if len(order) == 0 && len(s.GroupBy) == 0 {
			o = p.emptyGroup()
			order = []*group{{rep: []Row{nil}, accs: make([]acc, len(o.aggs.calls))}}
		}
		for _, g := range order {
			o.aggs.cur = g
			if o.having != nil {
				v, err := o.having(g.rep)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !truthy(v) {
					continue
				}
			}
			if err := emitRow(&o, g.rep); err != nil {
				return nil, err
			}
		}
	}
	p.enProject.Act = len(outRows)

	// DISTINCT.
	if s.Distinct {
		seen := make(map[string]bool)
		dedup := outRows[:0]
		var dedupKeys [][]Value
		var kbuf []byte
		for i, r := range outRows {
			kbuf = appendRowKey(kbuf[:0], r)
			if seen[string(kbuf)] {
				continue
			}
			seen[string(kbuf)] = true
			dedup = append(dedup, r)
			if len(orderKeys) > 0 {
				dedupKeys = append(dedupKeys, orderKeys[i])
			}
		}
		outRows = dedup
		if len(orderKeys) > 0 {
			orderKeys = dedupKeys
		}
		p.enDistinct.Act = len(outRows)
	}

	// ORDER BY (skipped when the root already emits in order).
	if len(s.OrderBy) > 0 && !p.preOrdered && len(outRows) > 1 {
		desc := make([]bool, len(s.OrderBy))
		for i, okey := range s.OrderBy {
			desc[i] = okey.Desc
		}
		sortRowsWithKeys(outRows, orderKeys, desc)
	}
	if p.enSort != nil {
		p.enSort.Act = len(outRows)
	}

	// OFFSET / LIMIT.
	if s.HasOffset {
		if s.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[s.Offset:]
		}
	}
	if s.HasLimit && s.Limit < len(outRows) {
		outRows = outRows[:s.Limit]
	}
	if p.enLimit != nil {
		p.enLimit.Act = len(outRows)
	}

	return &ResultSet{Columns: p.colNames, Rows: outRows}, nil
}

// appendRowKey appends the composite grouping/dedup key of vals to dst:
// each value's type and text, so Int 1 and Float 1 stay apart.
func appendRowKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		if v.IsNull() {
			dst = append(dst, "\x00N|"...)
			continue
		}
		dst = append(dst, v.Type().String()...)
		dst = append(dst, ':')
		switch v.Type() {
		case TypeInt:
			dst = strconv.AppendInt(dst, v.Int64(), 10)
		case TypeFloat:
			dst = strconv.AppendFloat(dst, v.Float64(), 'g', -1, 64)
		default:
			dst = append(dst, v.String()...)
		}
		dst = append(dst, '|')
	}
	return dst
}
