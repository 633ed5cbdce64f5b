package relational

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/explain"
)

// This file is the query planner: it compiles a SelectStmt into a
// selectPlan (plan.go executes it). Access paths, join order, build sides
// and the ORDER BY strategy are chosen here from table/index cardinality
// stats; no row is touched during compilation.

// selSource is one resolved FROM/JOIN table, in written order.
type selSource struct {
	ref   TableRef
	table *Table
	join  *JoinClause // nil for the base table
	pos   int
}

func (db *DB) resolveSources(s *SelectStmt) ([]selSource, error) {
	base, ok := db.tables[strings.ToLower(s.From.Table)]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.From.Table)
	}
	sources := []selSource{{ref: s.From, table: base, pos: 0}}
	for i := range s.Joins {
		jt, ok := db.tables[strings.ToLower(s.Joins[i].Table.Table)]
		if !ok {
			return nil, fmt.Errorf("relational: no table %q", s.Joins[i].Table.Table)
		}
		sources = append(sources, selSource{ref: s.Joins[i].Table, table: jt, join: &s.Joins[i], pos: i + 1})
	}
	return sources, nil
}

// conjInfo is one top-level AND conjunct of the WHERE clause with the set
// of sources it references (a bitmask over written positions).
type conjInfo struct {
	e      Expr
	mask   uint64
	single int  // written source position when the mask has one bit, else -1
	safe   bool // resolvable and cannot error when evaluated early
}

// compileSelect plans a SELECT. With fallback=true it compiles the
// written-order scan-everything baseline (no index access, no pushdown, no
// reordering, sort-after-materialize) — the ablation plan benchmarks and
// the planner-equivalence property test compare against.
func (db *DB) compileSelect(s *SelectStmt, fallback bool) (*selectPlan, error) {
	sources, err := db.resolveSources(s)
	if err != nil {
		return nil, err
	}
	n := len(sources)

	// Expand the projection list; a nil Expr means * over all bindings, in
	// written order regardless of the join order chosen below.
	var projExprs []Expr
	var colNames []string
	grouped := len(s.GroupBy) > 0
	for _, se := range s.Exprs {
		if se.Expr == nil {
			for _, sc := range sources {
				for _, c := range sc.table.Schema.Columns {
					projExprs = append(projExprs, &ColumnRef{Table: sc.ref.Name(), Name: c.Name})
					colNames = append(colNames, c.Name)
				}
			}
			continue
		}
		if hasAggregate(se.Expr) {
			grouped = true
		}
		projExprs = append(projExprs, se.Expr)
		colNames = append(colNames, selectLabel(se))
	}

	// WHERE conjunct analysis (planned mode only).
	var conjs []conjInfo
	if !fallback && s.Where != nil {
		for _, e := range whereConjuncts(s.Where) {
			mask, resolvable := conjunctMask(e, sources)
			ci := conjInfo{e: e, mask: mask, single: -1, safe: resolvable && safePushdown(e)}
			if resolvable && bits.OnesCount64(mask) == 1 {
				ci.single = bits.TrailingZeros64(mask)
			}
			conjs = append(conjs, ci)
		}
	}

	// The right side of a LEFT JOIN must not be narrowed before the join:
	// dropping its rows early would turn real matches into NULL extensions
	// (visible to IS NULL predicates), not just prune them.
	nullable := make([]bool, n)
	anyLeft := false
	for i, sc := range sources {
		if sc.join != nil && sc.join.Left {
			nullable[i] = true
			anyLeft = true
		}
	}

	// Per-source access planning (index conjunct intersection + pushdown).
	access := make([]sourceAccess, n)
	for i := range sources {
		access[i] = planAccess(sources[i], conjs, nullable[i], fallback)
	}

	// Join conjunct pool + order selection. Reordering engages only for
	// pure INNER chains whose ON conjuncts all resolve; LEFT JOINs and
	// murky references keep the written order (access paths still apply).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var pool []conjInfo
	plainJoins := fallback || anyLeft || n == 1
	if !plainJoins {
		for _, sc := range sources[1:] {
			for _, e := range whereConjuncts(sc.join.On) {
				mask, resolvable := conjunctMask(e, sources)
				if !resolvable {
					plainJoins = true
					break
				}
				pool = append(pool, conjInfo{e: e, mask: mask})
			}
			if plainJoins {
				break
			}
		}
	}
	reordered := false
	if !plainJoins && n > 2 {
		order = chooseJoinOrder(sources, access, pool)
		for i := range order {
			if order[i] != i {
				reordered = true
				break
			}
		}
	}

	binds := make([]planBind, n)
	for slot, pos := range order {
		binds[slot] = planBind{
			name:   sources[pos].ref.Name(),
			schema: sources[pos].table.Schema,
			table:  sources[pos].table,
			srcPos: pos,
		}
	}

	p := &selectPlan{
		stmt:      s,
		binds:     binds,
		projExprs: projExprs,
		colNames:  colNames,
		grouped:   grouped,
	}

	makeScan := func(slot int) *scanNode {
		pos := order[slot]
		ap := access[pos]
		op, detail := opTableScan, scanDetail(sources[pos])
		if len(ap.conds) > 0 {
			op = opIndexScan
			ds := make([]string, len(ap.conds))
			for i, c := range ap.conds {
				ds[i] = c.desc
			}
			detail += ": " + strings.Join(ds, " AND ")
		}
		return &scanNode{
			bind:    slot,
			table:   sources[pos].table,
			conds:   ap.conds,
			filters: ap.filters,
			en:      &explain.Node{Op: op, Detail: detail, Est: roundEst(ap.est)},
		}
	}

	// OrderByIndex: a single-table ORDER BY on an indexed column can walk
	// the index in order and stop at limit+offset survivors instead of
	// materializing and sorting.
	var root planNode
	runningEst := access[order[0]].est
	residualSel := residualSelectivity(s, conjs, fallback)
	if !fallback && n == 1 {
		if node, ok := db.orderByIndexPlan(s, sources[0], access[0], projExprs, colNames, grouped, residualSel); ok {
			root = node
			p.preOrdered = true
			p.explainRoot = node.en
			runningEst = float64(node.en.Est)
		}
	}

	anyBuildLeft := false
	if root == nil {
		root = makeScan(0)
		if plainJoins {
			// Written order; each join keeps its ON clause intact: a
			// hash-join fast path when the ON is a simple equality, a
			// nested loop over the once-materialized right rows otherwise.
			for slot := 1; slot < n; slot++ {
				sc := sources[slot]
				right := makeScan(slot)
				probe, build, hashable := hashJoinKeys(sc.join.On, sc.ref.Name(), sc.table.Schema)
				jn := &joinNode{left: root, right: right, leftOuter: sc.join.Left}
				if hashable {
					jn.hash = true
					jn.probe = probe
					jn.buildCol = build
					if !fallback && runningEst < access[slot].est*0.5 {
						jn.buildLeft = true
						anyBuildLeft = true
					}
					runningEst = equiJoinEstimate(runningEst, access[slot].est, sources[slot].table, build)
				} else {
					jn.conds = []Expr{sc.join.On}
					runningEst = runningEst * access[slot].est * 0.5
				}
				jn.en = joinExplain(jn, binds[slot], right.en, runningEst)
				root = jn
			}
		} else {
			// Reordered (or order-checked) INNER chain: ON conjuncts attach
			// at the first step where everything they reference is bound;
			// an attachable equality becomes the hash key.
			attached := make([]bool, len(pool))
			bound := uint64(1) << uint(order[0])
			for slot := 1; slot < n; slot++ {
				pos := order[slot]
				sc := sources[pos]
				stepBound := bound | uint64(1)<<uint(pos)
				var stepConds []Expr
				var hashProbe Expr
				hashBuild := -1
				for ci := range pool {
					if attached[ci] {
						continue
					}
					pc := pool[ci]
					if pc.mask&^stepBound != 0 {
						continue
					}
					attached[ci] = true
					if hashBuild < 0 && pc.mask&(uint64(1)<<uint(pos)) != 0 {
						if probe, build, ok := hashJoinKeys(pc.e, sc.ref.Name(), sc.table.Schema); ok {
							hashProbe, hashBuild = probe, build
							continue
						}
					}
					stepConds = append(stepConds, pc.e)
				}
				right := makeScan(slot)
				jn := &joinNode{left: root, right: right, conds: stepConds}
				if hashBuild >= 0 {
					jn.hash = true
					jn.probe = hashProbe
					jn.buildCol = hashBuild
					if runningEst < access[pos].est*0.5 {
						jn.buildLeft = true
						anyBuildLeft = true
					}
					runningEst = equiJoinEstimate(runningEst, access[pos].est, sc.table, hashBuild)
					runningEst *= math.Pow(0.5, float64(len(stepConds)))
				} else if len(stepConds) > 0 {
					runningEst = runningEst * access[pos].est * math.Pow(0.5, float64(len(stepConds)))
				} else {
					runningEst = runningEst * access[pos].est
				}
				jn.en = joinExplain(jn, binds[slot], right.en, runningEst)
				root = jn
				bound = stepBound
			}
		}

		// Residual WHERE: always re-checked in full, so pushdowns and
		// index over-approximation can never change semantics.
		finalEst := runningEst
		if s.Where != nil {
			finalEst = runningEst * residualSel
			fn := &filterNode{child: root, where: s.Where}
			fn.en = &explain.Node{
				Op:       opFilter,
				Detail:   ExprString(s.Where),
				Est:      roundEst(finalEst),
				Children: []*explain.Node{root.enode()},
			}
			root = fn
		}

		// Restore canonical written-order emission when the join order or a
		// build-side swap changed it.
		if reordered || anyBuildLeft {
			rn := &restoreNode{child: root, slotOrder: p.slotOfWritten()}
			rn.en = &explain.Node{
				Op:       opRestoreOrder,
				Detail:   "written order",
				Est:      roundEst(finalEst),
				Children: []*explain.Node{root.enode()},
			}
			root = rn
		}
		runningEst = finalEst
		p.explainRoot = root.enode()
	}
	p.root = root

	// Output stage explain chain: Project/GroupAggregate → Distinct →
	// OrderBySort → Limit, innermost first.
	outEst := runningEst
	if grouped {
		if len(s.GroupBy) == 0 {
			outEst = 1
		}
		p.enProject = &explain.Node{Op: opGroupAggregate, Detail: groupDetail(s), Est: roundEst(outEst), Children: []*explain.Node{p.explainRoot}}
	} else {
		p.enProject = &explain.Node{Op: opProject, Detail: strings.Join(colNames, ", "), Est: roundEst(outEst), Children: []*explain.Node{p.explainRoot}}
	}
	cur := p.enProject
	if s.Distinct {
		p.enDistinct = &explain.Node{Op: opDistinct, Est: cur.Est, Children: []*explain.Node{cur}}
		cur = p.enDistinct
	}
	if len(s.OrderBy) > 0 && !p.preOrdered {
		p.enSort = &explain.Node{Op: opSort, Detail: orderDetail(s), Est: cur.Est, Children: []*explain.Node{cur}}
		cur = p.enSort
	}
	if s.HasLimit || s.HasOffset {
		est := cur.Est
		if s.HasLimit && s.Limit < est {
			est = s.Limit
		}
		p.enLimit = &explain.Node{Op: opLimit, Detail: limitDetail(s), Est: est, Children: []*explain.Node{cur}}
		cur = p.enLimit
	}
	p.explainRoot = cur

	db.planner.planBuilt(reordered)
	return p, nil
}

// sourceAccess is the chosen access path for one table slot.
type sourceAccess struct {
	conds   []indexCond
	filters []Expr
	est     float64
}

// planAccess picks a source's access path: every safe single-table
// conjunct becomes a pushed filter, and indexable ones become index
// lookups — intersected, most selective first — when they actually narrow
// the table.
func planAccess(src selSource, conjs []conjInfo, nullable, fallback bool) sourceAccess {
	rows := float64(src.table.NumRows())
	ap := sourceAccess{est: rows}
	if fallback || nullable {
		return ap
	}
	var cands []indexCond
	for _, ci := range conjs {
		if ci.single != src.pos || !ci.safe {
			continue
		}
		ap.filters = append(ap.filters, ci.e)
		if cond, ok := indexCondFor(ci.e, src); ok {
			cands = append(cands, cond)
			ap.est *= condSelectivity(cond, rows)
		} else {
			ap.est *= selHeur(ci.e)
		}
	}
	if len(cands) > 0 {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].est < cands[j].est })
		// Drive with the most selective conjunct if it beats half a scan;
		// intersect up to two more that also pull their weight.
		if float64(cands[0].est) <= rows/2 || rows == 0 {
			ap.conds = cands[:1]
			for _, c := range cands[1:] {
				if len(ap.conds) == 3 {
					break
				}
				if float64(c.est) <= rows/2 {
					ap.conds = append(ap.conds, c)
				}
			}
		}
	}
	if ap.est < 0 {
		ap.est = 0
	}
	return ap
}

// residualSelectivity estimates how much of the joined rows the full WHERE
// keeps beyond what per-source pushdowns already removed.
func residualSelectivity(s *SelectStmt, conjs []conjInfo, fallback bool) float64 {
	if s.Where == nil {
		return 1
	}
	if fallback || len(conjs) == 0 {
		return clampSel(selHeur(s.Where))
	}
	sel := 1.0
	for _, ci := range conjs {
		if ci.single >= 0 && ci.safe {
			continue // already accounted in the source's access estimate
		}
		sel *= selHeur(ci.e)
	}
	return clampSel(sel)
}

func clampSel(s float64) float64 {
	if s < 0.001 {
		return 0.001
	}
	if s > 1 {
		return 1
	}
	return s
}

// orderByIndexPlan decides whether ORDER BY can walk a sorted index with
// LIMIT pushdown instead of sort-after-materialize, and builds the node if
// the cost model favors it.
func (db *DB) orderByIndexPlan(s *SelectStmt, src selSource, ap sourceAccess, projExprs []Expr, colNames []string, grouped bool, residualSel float64) (*orderedScanNode, bool) {
	if grouped || s.Distinct || s.Having != nil || len(s.GroupBy) != 0 || len(s.OrderBy) != 1 {
		return nil, false
	}
	key := s.OrderBy[0]
	ref, ok := key.Expr.(*ColumnRef)
	if !ok {
		return nil, false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, src.ref.Name()) {
		return nil, false
	}
	if ref.Table == "" {
		// An unqualified key matching a projection label sorts on the
		// projected value; that only coincides with the raw column when the
		// projection is the bare column itself.
		for ci, cn := range colNames {
			if strings.EqualFold(cn, ref.Name) {
				pr, isRef := projExprs[ci].(*ColumnRef)
				if !isRef || !strings.EqualFold(pr.Name, ref.Name) {
					return nil, false
				}
				break
			}
		}
	}
	if _, inSchema := src.table.Schema.ColumnIndex(ref.Name); !inSchema {
		return nil, false
	}
	idx, hasIdx := src.table.Index(ref.Name)
	if !hasIdx {
		return nil, false
	}

	rows := float64(src.table.NumRows())
	estAfter := ap.est * residualSel
	window := -1
	if s.HasLimit {
		window = s.Limit
		if s.HasOffset {
			window += s.Offset
		}
	}
	// Cost of walking in order: expected rows visited before the window
	// fills (the whole table without a limit). Cost of the sort path:
	// materialize the access path, then sort the survivors.
	orderedCost := rows
	if window >= 0 && estAfter > 0 {
		need := float64(window) * rows / estAfter
		if need < orderedCost {
			orderedCost = need
		}
	}
	accessCost := rows
	if len(ap.conds) > 0 {
		accessCost = float64(ap.conds[0].est)
	}
	sortN := estAfter
	if sortN < 2 {
		sortN = 2
	}
	sortCost := accessCost + estAfter*math.Log2(sortN)
	if orderedCost >= sortCost {
		return nil, false
	}

	est := estAfter
	if window >= 0 && float64(window) < est {
		est = float64(window)
	}
	dir := "ASC"
	if key.Desc {
		dir = "DESC"
	}
	detail := fmt.Sprintf("%s.%s %s", src.ref.Name(), idx.Column, dir)
	if window >= 0 {
		detail += fmt.Sprintf(" limit=%d", window)
	}
	if s.Where != nil {
		detail += " where=" + ExprString(s.Where)
	}
	return &orderedScanNode{
		bind:  0,
		table: src.table,
		idx:   idx,
		desc:  key.Desc,
		where: s.Where,
		stop:  window,
		en:    &explain.Node{Op: opOrderedIndexScan, Detail: detail, Est: roundEst(est)},
	}, true
}

// chooseJoinOrder greedily orders an INNER-join chain: start at the
// smallest estimated source, then repeatedly add the source reachable
// through a hashable equality edge (preferring the smallest), falling back
// to any connected source, then to the smallest remaining one.
func chooseJoinOrder(sources []selSource, access []sourceAccess, pool []conjInfo) []int {
	n := len(sources)
	used := make([]bool, n)
	order := make([]int, 0, n)
	best := 0
	for i := 1; i < n; i++ {
		if access[i].est < access[best].est {
			best = i
		}
	}
	order = append(order, best)
	used[best] = true
	bound := uint64(1) << uint(best)
	for len(order) < n {
		type cand struct {
			pos  int
			rank int // 0 = hashable edge, 1 = connected, 2 = cross
		}
		pick := cand{pos: -1, rank: 3}
		for pos := 0; pos < n; pos++ {
			if used[pos] {
				continue
			}
			rank := 2
			stepBound := bound | uint64(1)<<uint(pos)
			for _, pc := range pool {
				if pc.mask&(uint64(1)<<uint(pos)) == 0 || pc.mask&^stepBound != 0 {
					continue
				}
				if _, _, ok := hashJoinKeys(pc.e, sources[pos].ref.Name(), sources[pos].table.Schema); ok {
					rank = 0
					break
				}
				if rank > 1 {
					rank = 1
				}
			}
			if rank < pick.rank || (rank == pick.rank && (pick.pos < 0 || access[pos].est < access[pick.pos].est)) {
				pick = cand{pos: pos, rank: rank}
			}
		}
		order = append(order, pick.pos)
		used[pick.pos] = true
		bound |= uint64(1) << uint(pick.pos)
	}
	return order
}

// equiJoinEstimate is |L|·|R| / distinct join keys on the right, with the
// index's distinct count when one exists (a unique index makes the join
// key-preserving).
func equiJoinEstimate(leftEst, rightEst float64, right *Table, buildCol int) float64 {
	d := rightEst
	colName := right.Schema.Columns[buildCol].Name
	if idx, ok := right.Index(colName); ok {
		if dk := idx.DistinctKeys(); dk > 0 {
			d = float64(dk)
		}
	} else if d > 3 {
		d = d / 3 // no stats: assume mild duplication
	}
	if d < 1 {
		d = 1
	}
	return leftEst * rightEst / d
}

func joinExplain(jn *joinNode, rightBind planBind, rightEn *explain.Node, est float64) *explain.Node {
	var op, detail string
	if jn.hash {
		op = opHashJoin
		side := "right"
		if jn.buildLeft {
			side = "left"
		}
		detail = fmt.Sprintf("%s = %s.%s build=%s",
			ExprString(jn.probe), rightBind.name, rightBind.schema.Columns[jn.buildCol].Name, side)
		if len(jn.conds) > 0 {
			detail += " filter=" + condsDetail(jn.conds)
		}
	} else {
		op = opNestedLoop
		if len(jn.conds) > 0 {
			detail = "on " + condsDetail(jn.conds)
		} else {
			detail = "cross"
		}
	}
	if jn.leftOuter {
		detail += " outer"
	}
	return &explain.Node{
		Op:       op,
		Detail:   detail,
		Est:      roundEst(est),
		Children: []*explain.Node{jn.left.enode(), rightEn},
	}
}

func condsDetail(conds []Expr) string {
	ds := make([]string, len(conds))
	for i, c := range conds {
		ds[i] = ExprString(c)
	}
	return strings.Join(ds, " AND ")
}

func scanDetail(src selSource) string {
	name := src.table.Name
	if !strings.EqualFold(src.ref.Name(), name) {
		name += " as " + src.ref.Name()
	}
	return name
}

func groupDetail(s *SelectStmt) string {
	if len(s.GroupBy) == 0 {
		return "global"
	}
	ds := make([]string, len(s.GroupBy))
	for i, e := range s.GroupBy {
		ds[i] = ExprString(e)
	}
	return "by " + strings.Join(ds, ", ")
}

func orderDetail(s *SelectStmt) string {
	ds := make([]string, len(s.OrderBy))
	for i, k := range s.OrderBy {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		ds[i] = ExprString(k.Expr) + " " + dir
	}
	return strings.Join(ds, ", ")
}

func limitDetail(s *SelectStmt) string {
	var parts []string
	if s.HasLimit {
		parts = append(parts, fmt.Sprintf("limit=%d", s.Limit))
	}
	if s.HasOffset {
		parts = append(parts, fmt.Sprintf("offset=%d", s.Offset))
	}
	return strings.Join(parts, " ")
}

func roundEst(f float64) int {
	if f < 0 {
		return 0
	}
	if f > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Round(f))
}

// whereConjuncts flattens top-level AND nesting (parenthesized or not) into
// the conjunct list.
func whereConjuncts(e Expr) []Expr {
	var out []Expr
	var collect func(Expr)
	collect = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			collect(b.L)
			collect(b.R)
			return
		}
		out = append(out, e)
	}
	collect(e)
	return out
}

// conjunctMask returns the set of written source positions an expression
// references. Unqualified columns matching several sources set several bits
// (the conjunct is then multi-source and stays residual-only). resolvable
// is false when any reference matches no source — evaluating such an
// expression errors, so it must stay exactly where the unplanned executor
// would have evaluated it.
func conjunctMask(e Expr, sources []selSource) (uint64, bool) {
	var mask uint64
	resolvable := true
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColumnRef:
			found := false
			for _, sc := range sources {
				if x.Table != "" {
					if strings.EqualFold(x.Table, sc.ref.Name()) {
						if _, ok := sc.table.Schema.ColumnIndex(x.Name); ok {
							mask |= uint64(1) << uint(sc.pos)
							found = true
						}
					}
					continue
				}
				if _, ok := sc.table.Schema.ColumnIndex(x.Name); ok {
					mask |= uint64(1) << uint(sc.pos)
					found = true
				}
			}
			if !found {
				resolvable = false
			}
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.X)
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		case *InExpr:
			walk(x.X)
			for _, a := range x.List {
				walk(a)
			}
		case *IsNullExpr:
			walk(x.X)
		}
	}
	walk(e)
	return mask, resolvable
}

// safePushdown reports whether evaluating the expression early can never
// error: comparisons, LIKE, IN, IS NULL, NOT and boolean combinations over
// column refs and literals. Arithmetic and function calls can error on
// unexpected types, and the unplanned executor's AND short-circuit might
// have skipped them — so they are never evaluated ahead of their place.
func safePushdown(e Expr) bool {
	switch x := e.(type) {
	case *ColumnRef, *Literal:
		return true
	case *Binary:
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=", "LIKE", "AND", "OR":
			return safePushdown(x.L) && safePushdown(x.R)
		}
		return false
	case *Unary:
		return x.Op == "NOT" && safePushdown(x.X)
	case *InExpr:
		if !safePushdown(x.X) {
			return false
		}
		for _, it := range x.List {
			if !safePushdown(it) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		return safePushdown(x.X)
	}
	return false
}

// indexCondFor matches `col op literal` (either side) against the source's
// indexes and prices the lookup exactly via the index's O(log n) count
// methods.
func indexCondFor(e Expr, src selSource) (indexCond, bool) {
	b, ok := e.(*Binary)
	if !ok {
		return indexCond{}, false
	}
	colOf := func(e Expr) (string, bool) {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return "", false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, src.ref.Name()) {
			return "", false
		}
		return ref.Name, true
	}
	litOf := func(e Expr) (Value, bool) {
		l, ok := e.(*Literal)
		if !ok {
			return Value{}, false
		}
		return l.Val, true
	}
	col, lit, op := "", Value{}, b.Op
	if c, okc := colOf(b.L); okc {
		if v, okl := litOf(b.R); okl {
			col, lit = c, v
		}
	} else if c, okc := colOf(b.R); okc {
		if v, okl := litOf(b.L); okl {
			col, lit = c, v
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
	}
	if col == "" {
		return indexCond{}, false
	}
	idx, ok := src.table.Index(col)
	if !ok {
		return indexCond{}, false
	}
	cond := indexCond{idx: idx, desc: ExprString(e)}
	switch op {
	case "=":
		cond.isEq = true
		cond.eq = lit
		cond.est = idx.CountEq(lit)
	case "<", "<=":
		cond.hi, cond.hasHi = lit, true
		cond.est = idx.CountRange(Value{}, false, lit, true)
	case ">", ">=":
		cond.lo, cond.hasLo = lit, true
		cond.est = idx.CountRange(lit, true, Value{}, false)
	default:
		return indexCond{}, false
	}
	return cond, true
}

func condSelectivity(c indexCond, rows float64) float64 {
	if rows <= 0 {
		return 1
	}
	return float64(c.est) / rows
}

// selHeur is the textbook default-selectivity table for predicates the
// planner has no index statistics for.
func selHeur(e Expr) float64 {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "=":
			return 0.1
		case "!=":
			return 0.9
		case "<", "<=", ">", ">=":
			return 0.3
		case "LIKE":
			return 0.25
		case "AND":
			return selHeur(x.L) * selHeur(x.R)
		case "OR":
			s := selHeur(x.L) + selHeur(x.R)
			if s > 1 {
				return 1
			}
			return s
		}
		return 0.5
	case *Unary:
		if x.Op == "NOT" {
			return 1 - selHeur(x.X)
		}
		return 0.5
	case *InExpr:
		s := 0.1 * float64(len(x.List))
		if x.Not {
			s = 1 - s
		}
		if s > 1 {
			s = 1
		}
		if s < 0 {
			s = 0
		}
		return s
	case *IsNullExpr:
		if x.Not {
			return 0.9
		}
		return 0.1
	}
	return 0.5
}

// sortRowsWithKeys stably sorts rows (and their keys) by the key columns.
func sortRowsWithKeys(rows []Row, keys [][]Value, desc []bool) {
	if len(keys) != len(rows) {
		return
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range ka {
			c := Compare(ka[i], kb[i])
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	outRows := make([]Row, len(rows))
	outKeys := make([][]Value, len(keys))
	for i, j := range idx {
		outRows[i] = rows[j]
		outKeys[i] = keys[j]
	}
	copy(rows, outRows)
	copy(keys, outKeys)
}

// joinKey renders a value as a hash-join key with =-compatible equality:
// numerics collapse to one spelling regardless of int/float type.
func joinKey(v Value) string {
	if v.IsNumeric() {
		return "N:" + Float(v.Float64()).String()
	}
	return v.Type().String() + ":" + v.String()
}

// hashJoinKeys decides whether a join condition is a simple equality
// between a column of the table being joined (returned as its position,
// the build side) and an expression over earlier bindings (the probe
// side). The equality operator's cross-type numeric semantics are handled
// by the caller.
func hashJoinKeys(on Expr, joinName string, joinSchema *Schema) (probe Expr, build int, ok bool) {
	b, isBin := on.(*Binary)
	if !isBin || b.Op != "=" {
		return nil, 0, false
	}
	side := func(e Expr) (int, bool) {
		ref, isRef := e.(*ColumnRef)
		if !isRef {
			return 0, false
		}
		if ref.Table == "" || !strings.EqualFold(ref.Table, joinName) {
			return 0, false
		}
		pos, found := joinSchema.ColumnIndex(ref.Name)
		return pos, found
	}
	refersToJoin := func(e Expr) bool {
		found := false
		var walk func(Expr)
		walk = func(e Expr) {
			switch x := e.(type) {
			case *ColumnRef:
				if x.Table == "" || strings.EqualFold(x.Table, joinName) {
					// Unqualified references are ambiguous; be conservative.
					if _, in := joinSchema.ColumnIndex(x.Name); in {
						found = true
					}
				}
			case *Binary:
				walk(x.L)
				walk(x.R)
			case *Unary:
				walk(x.X)
			case *Call:
				for _, a := range x.Args {
					walk(a)
				}
			case *InExpr:
				walk(x.X)
				for _, a := range x.List {
					walk(a)
				}
			case *IsNullExpr:
				walk(x.X)
			}
		}
		walk(e)
		return found
	}
	if pos, isBuild := side(b.L); isBuild && !refersToJoin(b.R) {
		return b.R, pos, true
	}
	if pos, isBuild := side(b.R); isBuild && !refersToJoin(b.L) {
		return b.L, pos, true
	}
	return nil, 0, false
}

// selectLabel derives the output column label of a projection.
func selectLabel(se SelectExpr) string {
	if se.Alias != "" {
		return se.Alias
	}
	switch e := se.Expr.(type) {
	case *ColumnRef:
		return e.Name
	case *Call:
		if e.Star {
			return strings.ToLower(e.Name) + "(*)"
		}
		return strings.ToLower(e.Name)
	}
	return "expr"
}
