package relational

import (
	"fmt"
	"math"
	"strings"
)

// This file is the oracle TestQueryMatchesReference and FuzzParseSQL
// compare Query against: a tree-walking interpreter that finds every
// column by name in the row it is evaluated on (refEval), run over the
// written-order scan-everything plan (referenceQuery) — no index access,
// no pushdown, no join reordering, grouping over materialized member rows,
// sort after materialization.

// refBinding associates a table alias with a schema and the current row; a
// nil row stands for the NULL-extended side of a LEFT JOIN.
type refBinding struct {
	name   string
	schema *Schema
	row    Row
}

type refContext struct {
	bindings []refBinding
	// group is non-nil while projecting grouped results.
	group *refGroup
}

func (c *refContext) resolve(ref *ColumnRef) (Value, error) {
	found := false
	var out Value
	for _, b := range c.bindings {
		if ref.Table != "" && !strings.EqualFold(ref.Table, b.name) {
			continue
		}
		if pos, ok := b.schema.ColumnIndex(ref.Name); ok {
			if found {
				return Value{}, fmt.Errorf("relational: ambiguous column %q", ref.Name)
			}
			found = true
			if b.row == nil {
				out = Null()
			} else {
				out = b.row[pos]
			}
		}
	}
	if !found {
		if ref.Table != "" {
			return Value{}, fmt.Errorf("relational: unknown column %s.%s", ref.Table, ref.Name)
		}
		return Value{}, fmt.Errorf("relational: unknown column %q", ref.Name)
	}
	return out, nil
}

func refEval(ctx *refContext, e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		return ctx.resolve(x)
	case *Unary:
		v, err := refEval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!refTruthy(v)), nil
		case "-":
			if v.IsNull() {
				return Null(), nil
			}
			switch v.Type() {
			case TypeInt:
				return Int(-v.Int64()), nil
			case TypeFloat:
				return Float(-v.Float64()), nil
			}
			return Value{}, fmt.Errorf("relational: cannot negate %s", v.Type())
		}
		return Value{}, fmt.Errorf("relational: unknown unary op %q", x.Op)
	case *Binary:
		return refEvalBinary(ctx, x)
	case *InExpr:
		v, err := refEval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		for _, item := range x.List {
			iv, err := refEval(ctx, item)
			if err != nil {
				return Value{}, err
			}
			if Equal(v, iv) {
				return Bool(!x.Not), nil
			}
		}
		return Bool(x.Not), nil
	case *IsNullExpr:
		v, err := refEval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *Call:
		if refAggregateFuncs[x.Name] {
			if ctx.group == nil {
				return Value{}, fmt.Errorf("relational: aggregate %s outside grouped query", x.Name)
			}
			return ctx.group.value(x)
		}
		return refEvalScalarCall(ctx, x)
	}
	return Value{}, fmt.Errorf("relational: cannot evaluate %T", e)
}

// refAggregateFuncs are the aggregates supported in grouped queries.
var refAggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// refHasAggregate walks an expression for aggregate calls.
func refHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		if refAggregateFuncs[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if refHasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return refHasAggregate(x.L) || refHasAggregate(x.R)
	case *Unary:
		return refHasAggregate(x.X)
	case *InExpr:
		if refHasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if refHasAggregate(a) {
				return true
			}
		}
	case *IsNullExpr:
		return refHasAggregate(x.X)
	}
	return false
}

func refTruthy(v Value) bool {
	if v.IsNull() {
		return false
	}
	switch v.Type() {
	case TypeBool:
		return v.Bool0()
	case TypeInt:
		return v.Int64() != 0
	case TypeFloat:
		return v.Float64() != 0
	case TypeText:
		return v.Text0() != ""
	}
	return false
}

func refEvalBinary(ctx *refContext, x *Binary) (Value, error) {
	// Short-circuit logic with SQL three-valued semantics collapsed to
	// two-valued (NULL operands yield NULL, filtered as false upstream).
	if x.Op == "AND" || x.Op == "OR" {
		l, err := refEval(ctx, x.L)
		if err != nil {
			return Value{}, err
		}
		lt := !l.IsNull() && refTruthy(l)
		if x.Op == "AND" && !lt {
			return Bool(false), nil
		}
		if x.Op == "OR" && lt {
			return Bool(true), nil
		}
		r, err := refEval(ctx, x.R)
		if err != nil {
			return Value{}, err
		}
		return Bool(!r.IsNull() && refTruthy(r)), nil
	}

	l, err := refEval(ctx, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := refEval(ctx, x.R)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "!=":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(likeMatch(l.String(), r.String())), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if x.Op == "+" && l.Type() == TypeText && r.Type() == TypeText {
			return Text(l.Text0() + r.Text0()), nil
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return Value{}, fmt.Errorf("relational: arithmetic on non-numeric values %s and %s", l, r)
		}
		if l.Type() == TypeInt && r.Type() == TypeInt && x.Op != "/" {
			a, b := l.Int64(), r.Int64()
			switch x.Op {
			case "+":
				return Int(a + b), nil
			case "-":
				return Int(a - b), nil
			case "*":
				return Int(a * b), nil
			}
		}
		a, b := l.Float64(), r.Float64()
		switch x.Op {
		case "+":
			return Float(a + b), nil
		case "-":
			return Float(a - b), nil
		case "*":
			return Float(a * b), nil
		case "/":
			if b == 0 {
				return Null(), nil
			}
			return Float(a / b), nil
		}
	}
	return Value{}, fmt.Errorf("relational: unknown operator %q", x.Op)
}

func refEvalScalarCall(ctx *refContext, x *Call) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := refEval(ctx, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("relational: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "LOWER":
		if err := argc(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if err := argc(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "LENGTH":
		if err := argc(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "ABS":
		if err := argc(1); err != nil {
			return Value{}, err
		}
		v := args[0]
		if v.IsNull() {
			return Null(), nil
		}
		if v.Type() == TypeInt {
			n := v.Int64()
			if n < 0 {
				n = -n
			}
			return Int(n), nil
		}
		return Float(math.Abs(v.Float64())), nil
	case "ROUND":
		if err := argc(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Float(math.Round(args[0].Float64())), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	case "CONCAT":
		var b strings.Builder
		for _, v := range args {
			if !v.IsNull() {
				b.WriteString(v.String())
			}
		}
		return Text(b.String()), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("relational: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		s := args[0].String()
		start := int(args[1].Int64()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 && !args[2].IsNull() {
			if n := int(args[2].Int64()); start+n < end {
				end = start + n
			}
		}
		return Text(s[start:end]), nil
	}
	return Value{}, fmt.Errorf("relational: unknown function %s", x.Name)
}

// refJrow is one joined row in flight: rows[i] belongs to written source i
// (nil = the NULL-extended side of a LEFT JOIN).
type refJrow struct {
	rows []Row
}

// refGroup accumulates the member rows of one group and answers aggregate
// calls by evaluating their argument over every member.
type refGroup struct {
	rows []refJrow
	bind func(refJrow) *refContext
}

func (g *refGroup) value(call *Call) (Value, error) {
	if call.Star {
		if call.Name != "COUNT" {
			return Value{}, fmt.Errorf("relational: %s(*) is not valid", call.Name)
		}
		return Int(int64(len(g.rows))), nil
	}
	if len(call.Args) != 1 {
		return Value{}, fmt.Errorf("relational: %s expects 1 argument", call.Name)
	}
	var vals []Value
	seen := make(map[string]bool)
	for _, jr := range g.rows {
		v, err := refEval(g.bind(jr), call.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if call.Distinct {
			k := v.Type().String() + ":" + v.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch call.Name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		allInt := true
		var fs, is = 0.0, int64(0)
		for _, v := range vals {
			if !v.IsNumeric() {
				return Value{}, fmt.Errorf("relational: %s over non-numeric value %s", call.Name, v)
			}
			if v.Type() != TypeInt {
				allInt = false
			}
			fs += v.Float64()
			is += v.Int64()
		}
		if call.Name == "AVG" {
			return Float(fs / float64(len(vals))), nil
		}
		if allInt {
			return Int(is), nil
		}
		return Float(fs), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (call.Name == "MIN" && c < 0) || (call.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("relational: unknown aggregate %s", call.Name)
}

// refRowKey renders values into a composite grouping/dedup key.
func refRowKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		if v.IsNull() {
			b.WriteString("\x00N|")
			continue
		}
		b.WriteString(v.Type().String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}

// referenceQuery runs a SELECT through the written-order scan-everything
// plan: every source is read whole in ascending id order and joined in the
// order written — a hash join built over the right rows when the ON clause
// is a simple equality, a nested loop over every pair otherwise — then the
// whole WHERE filters the joined rows and the output stage projects,
// groups, sorts and slices them.
func referenceQuery(db *DB, sql string) (*ResultSet, error) {
	s, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return referenceSelect(db, s)
}

func referenceSelect(db *DB, s *SelectStmt) (*ResultSet, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sources, err := db.resolveSources(s)
	if err != nil {
		return nil, err
	}
	n := len(sources)

	// Expand the projection list; a nil Expr means * over all bindings.
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
		if refHasAggregate(se.Expr) {
			grouped = true
		}
		projExprs = append(projExprs, se.Expr)
		colNames = append(colNames, refSelectLabel(se))
	}

	// Scratch contexts, one per binding-prefix width, all over one backing
	// array so binding a prefix also positions the wider contexts.
	all := make([]refBinding, n)
	for i, sc := range sources {
		all[i] = refBinding{name: sc.ref.Name(), schema: sc.table.Schema}
	}
	ctxs := make([]*refContext, n)
	for w := range ctxs {
		ctxs[w] = &refContext{bindings: all[: w+1 : w+1]}
	}
	bindPrefix := func(l refJrow) {
		for i, r := range l.rows {
			all[i].row = r
		}
	}
	scanAll := func(t *Table) []Row {
		var rows []Row
		t.Scan(func(_ int64, row Row) bool {
			rows = append(rows, row)
			return true
		})
		return rows
	}

	var jrows []refJrow
	for _, row := range scanAll(sources[0].table) {
		jrows = append(jrows, refJrow{rows: []Row{row}})
	}
	for slot := 1; slot < n; slot++ {
		sc := sources[slot]
		rrows := scanAll(sc.table)
		lw := slot
		extend := func(l refJrow, row Row) refJrow {
			rows := make([]Row, lw+1)
			copy(rows, l.rows)
			rows[lw] = row
			return refJrow{rows: rows}
		}
		var out []refJrow
		if probe, build, ok := refHashJoinKeys(sc.join.On, sc.ref.Name(), sc.table.Schema); ok {
			buildIdx := make(map[string][]int32, len(rrows))
			for i, row := range rrows {
				v := row[build]
				if !v.IsNull() {
					k := refJoinKey(v)
					buildIdx[k] = append(buildIdx[k], int32(i))
				}
			}
			for _, l := range jrows {
				bindPrefix(l)
				pv, err := refEval(ctxs[lw-1], probe)
				if err != nil {
					return nil, err
				}
				var matches []int32
				if !pv.IsNull() {
					matches = buildIdx[refJoinKey(pv)]
				}
				for _, ri := range matches {
					out = append(out, extend(l, rrows[ri]))
				}
				if len(matches) == 0 && sc.join.Left {
					out = append(out, extend(l, nil))
				}
			}
		} else {
			for _, l := range jrows {
				bindPrefix(l)
				emitted := false
				for _, row := range rrows {
					all[lw].row = row
					v, err := refEval(ctxs[lw], sc.join.On)
					if err != nil {
						return nil, err
					}
					if v.IsNull() || !refTruthy(v) {
						continue
					}
					out = append(out, extend(l, row))
					emitted = true
				}
				if !emitted && sc.join.Left {
					out = append(out, extend(l, nil))
				}
			}
		}
		jrows = out
	}
	bind := func(jr refJrow) *refContext {
		bindPrefix(jr)
		return ctxs[len(jr.rows)-1]
	}
	if s.Where != nil {
		kept := jrows[:0]
		for _, jr := range jrows {
			v, err := refEval(bind(jr), s.Where)
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && refTruthy(v) {
				kept = append(kept, jr)
			}
		}
		jrows = kept
	}

	var outRows []Row
	var orderKeys [][]Value

	evalOrderKeys := func(ctx *refContext, projected Row) ([]Value, error) {
		keys := make([]Value, len(s.OrderBy))
		for i, ok := range s.OrderBy {
			// An ORDER BY key naming a projection alias sorts on the
			// projected value.
			if ref, isRef := ok.Expr.(*ColumnRef); isRef && ref.Table == "" {
				found := false
				for ci, cn := range colNames {
					if strings.EqualFold(cn, ref.Name) {
						keys[i] = projected[ci]
						found = true
						break
					}
				}
				if found {
					continue
				}
			}
			v, err := refEval(ctx, ok.Expr)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	if grouped {
		memberCtx := &refContext{bindings: make([]refBinding, n)}
		for i := range all {
			memberCtx.bindings[i] = refBinding{name: all[i].name, schema: all[i].schema}
		}
		bindMember := func(jr refJrow) *refContext {
			for i, r := range jr.rows {
				memberCtx.bindings[i].row = r
			}
			return memberCtx
		}
		groups := make(map[string]*refGroup)
		var order []string
		for _, jr := range jrows {
			ctx := bind(jr)
			var kv []Value
			for _, ge := range s.GroupBy {
				v, err := refEval(ctx, ge)
				if err != nil {
					return nil, err
				}
				kv = append(kv, v)
			}
			k := refRowKey(kv)
			g, ok := groups[k]
			if !ok {
				g = &refGroup{bind: bindMember}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, jr)
		}
		if len(groups) == 0 && len(s.GroupBy) == 0 {
			// Aggregates over an empty input still yield one row.
			groups[""] = &refGroup{bind: bindMember}
			order = append(order, "")
		}
		for _, k := range order {
			g := groups[k]
			// Representative row context for non-aggregate expressions. An
			// empty group binds only the base table with a NULL row.
			var gctx *refContext
			if len(g.rows) > 0 {
				rep := g.rows[0]
				bs := make([]refBinding, n)
				for i := range all {
					bs[i] = refBinding{name: all[i].name, schema: all[i].schema, row: rep.rows[i]}
				}
				gctx = &refContext{bindings: bs, group: g}
			} else {
				gctx = &refContext{bindings: []refBinding{{name: all[0].name, schema: all[0].schema}}, group: g}
			}
			if s.Having != nil {
				v, err := refEval(gctx, s.Having)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !refTruthy(v) {
					continue
				}
			}
			row := make(Row, len(projExprs))
			for i, e := range projExprs {
				v, err := refEval(gctx, e)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			outRows = append(outRows, row)
			if len(s.OrderBy) > 0 {
				keys, err := evalOrderKeys(gctx, row)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
			}
		}
	} else {
		for _, jr := range jrows {
			ctx := bind(jr)
			row := make(Row, len(projExprs))
			for i, e := range projExprs {
				v, err := refEval(ctx, e)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			outRows = append(outRows, row)
			if len(s.OrderBy) > 0 {
				keys, err := evalOrderKeys(ctx, row)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
			}
		}
	}

	if s.Distinct {
		seen := make(map[string]bool)
		dedup := outRows[:0]
		var dedupKeys [][]Value
		for i, r := range outRows {
			k := refRowKey(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, r)
			if len(orderKeys) > 0 {
				dedupKeys = append(dedupKeys, orderKeys[i])
			}
		}
		outRows = dedup
		if len(orderKeys) > 0 {
			orderKeys = dedupKeys
		}
	}

	if len(s.OrderBy) > 0 && len(outRows) > 1 {
		refSortRows(outRows, orderKeys, s.OrderBy)
	}

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
	return &ResultSet{Columns: colNames, Rows: outRows}, nil
}

// refSortRows stably sorts rows by their keys, insertion sort being the
// simplest stable sort there is.
func refSortRows(rows []Row, keys [][]Value, by []OrderKey) {
	less := func(a, b []Value) bool {
		for i := range a {
			c := Compare(a[i], b[i])
			if c == 0 {
				continue
			}
			if by[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// refJoinKey renders a value as a hash-join key with =-compatible
// equality: numerics collapse to one spelling regardless of int/float type.
func refJoinKey(v Value) string {
	if v.IsNumeric() {
		return "N:" + Float(v.Float64()).String()
	}
	return v.Type().String() + ":" + v.String()
}

// refHashJoinKeys decides whether a join condition is a simple equality
// between a qualified column of the joined table (the build side) and an
// expression that names no column of it (the probe side).
func refHashJoinKeys(on Expr, joinName string, joinSchema *Schema) (probe Expr, build int, ok bool) {
	b, isBin := on.(*Binary)
	if !isBin || b.Op != "=" {
		return nil, 0, false
	}
	side := func(e Expr) (int, bool) {
		ref, isRef := e.(*ColumnRef)
		if !isRef || ref.Table == "" || !strings.EqualFold(ref.Table, joinName) {
			return 0, false
		}
		return joinSchema.ColumnIndex(ref.Name)
	}
	var refersToJoin func(Expr) bool
	refersToJoin = func(e Expr) bool {
		switch x := e.(type) {
		case *ColumnRef:
			if x.Table == "" || strings.EqualFold(x.Table, joinName) {
				_, in := joinSchema.ColumnIndex(x.Name)
				return in
			}
		case *Binary:
			return refersToJoin(x.L) || refersToJoin(x.R)
		case *Unary:
			return refersToJoin(x.X)
		case *Call:
			for _, a := range x.Args {
				if refersToJoin(a) {
					return true
				}
			}
		case *InExpr:
			if refersToJoin(x.X) {
				return true
			}
			for _, a := range x.List {
				if refersToJoin(a) {
					return true
				}
			}
		case *IsNullExpr:
			return refersToJoin(x.X)
		}
		return false
	}
	if pos, isBuild := side(b.L); isBuild && !refersToJoin(b.R) {
		return b.R, pos, true
	}
	if pos, isBuild := side(b.R); isBuild && !refersToJoin(b.L) {
		return b.L, pos, true
	}
	return nil, 0, false
}

// refSelectLabel derives the output column label of a projection.
func refSelectLabel(se SelectExpr) string {
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
