package relational

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ResultSet is the outcome of a query: column labels plus rows.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// evalFn is a compiled expression. It reads the rows it is handed by
// position — rows[i] is the row of the i-th binding of the scope it was
// compiled in, nil for the NULL-extended side of a LEFT JOIN — so no column
// is looked up by name while rows flow.
type evalFn func(rows []Row) (Value, error)

// scopeBind is one table binding an expression can name where it is
// evaluated; at is the position of its row in the slice the compiled
// expression is handed.
type scopeBind struct {
	name   string
	schema *Schema
	at     int
}

// compiler turns expressions into evalFns for one evaluation site: scope
// lists the bindings visible there, in the order a name is looked up in
// them. aggs is the grouped query's aggregate set, which aggregate calls
// register with; nil where no group is being evaluated, and an aggregate
// call there compiles to its error.
type compiler struct {
	scope []scopeBind
	aggs  *aggSet
}

// fail compiles to an expression that returns err each time it is
// evaluated: an unknown or ambiguous column is an error only for a query
// that reaches it, so one whose rows never evaluate it still succeeds.
func fail(err error) evalFn {
	return func([]Row) (Value, error) { return Value{}, err }
}

func (c *compiler) compile(e Expr) evalFn {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func([]Row) (Value, error) { return v, nil }
	case *ColumnRef:
		return c.column(x)
	case *Unary:
		return c.unary(x)
	case *Binary:
		return c.binary(x)
	case *InExpr:
		return c.in(x)
	case *IsNullExpr:
		arg, not := c.compile(x.X), x.Not
		return func(rows []Row) (Value, error) {
			v, err := arg(rows)
			if err != nil {
				return Value{}, err
			}
			return Bool(v.IsNull() != not), nil
		}
	case *Call:
		if aggregateFuncs[x.Name] {
			if c.aggs == nil {
				return fail(fmt.Errorf("relational: aggregate %s outside grouped query", x.Name))
			}
			return c.aggs.add(x)
		}
		return c.scalar(x)
	}
	return fail(fmt.Errorf("relational: cannot evaluate %T", e))
}

// column resolves a reference to one binding's column offset. Exactly one
// binding of the scope must have the column.
func (c *compiler) column(ref *ColumnRef) evalFn {
	at, pos, matches := 0, 0, 0
	for _, b := range c.scope {
		if ref.Table != "" && !strings.EqualFold(ref.Table, b.name) {
			continue
		}
		if p, ok := b.schema.ColumnIndex(ref.Name); ok {
			if matches == 0 {
				at, pos = b.at, p
			}
			matches++
		}
	}
	switch {
	case matches > 1:
		return fail(fmt.Errorf("relational: ambiguous column %q", ref.Name))
	case matches == 0 && ref.Table != "":
		return fail(fmt.Errorf("relational: unknown column %s.%s", ref.Table, ref.Name))
	case matches == 0:
		return fail(fmt.Errorf("relational: unknown column %q", ref.Name))
	}
	return func(rows []Row) (Value, error) {
		r := rows[at]
		if r == nil {
			return Null(), nil
		}
		return r[pos], nil
	}
}

func (c *compiler) unary(x *Unary) evalFn {
	arg := c.compile(x.X)
	switch x.Op {
	case "NOT":
		return func(rows []Row) (Value, error) {
			v, err := arg(rows)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			return Bool(!truthy(v)), nil
		}
	case "-":
		return func(rows []Row) (Value, error) {
			v, err := arg(rows)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			switch v.Type() {
			case TypeInt:
				return Int(-v.Int64()), nil
			case TypeFloat:
				return Float(-v.Float64()), nil
			}
			return Value{}, fmt.Errorf("relational: cannot negate %s", v.Type())
		}
	}
	return fail(fmt.Errorf("relational: unknown unary op %q", x.Op)) // Parse makes none
}

// cmpHolds reports whether a Compare result satisfies a comparison operator.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

func (c *compiler) binary(x *Binary) evalFn {
	l, r := c.compile(x.L), c.compile(x.R)
	lit, constR := x.R.(*Literal)
	switch op := x.Op; op {
	case "AND", "OR":
		// Short-circuit logic with SQL three-valued semantics collapsed to
		// two-valued (NULL operands yield NULL, filtered as false upstream).
		stopOn := op == "OR"
		return func(rows []Row) (Value, error) {
			lv, err := l(rows)
			if err != nil {
				return Value{}, err
			}
			if (!lv.IsNull() && truthy(lv)) == stopOn {
				return Bool(stopOn), nil
			}
			rv, err := r(rows)
			if err != nil {
				return Value{}, err
			}
			return Bool(!rv.IsNull() && truthy(rv)), nil
		}
	case "=", "!=", "<", "<=", ">", ">=":
		if constR && !lit.Val.IsNull() {
			k := lit.Val
			return func(rows []Row) (Value, error) {
				lv, err := l(rows)
				if err != nil || lv.IsNull() {
					return Null(), err
				}
				return Bool(cmpHolds(op, Compare(lv, k))), nil
			}
		}
		return func(rows []Row) (Value, error) {
			lv, rv, err := both(l, r, rows)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null(), err
			}
			return Bool(cmpHolds(op, Compare(lv, rv))), nil
		}
	case "LIKE":
		return func(rows []Row) (Value, error) {
			lv, rv, err := both(l, r, rows)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null(), err
			}
			return Bool(likeMatch(lv.String(), rv.String())), nil
		}
	case "+", "-", "*", "/":
		return func(rows []Row) (Value, error) {
			lv, rv, err := both(l, r, rows)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null(), err
			}
			return arith(op, lv, rv)
		}
	}
	return fail(fmt.Errorf("relational: unknown operator %q", x.Op)) // Parse makes none
}

// both evaluates two operands, left first.
func both(l, r evalFn, rows []Row) (Value, Value, error) {
	lv, err := l(rows)
	if err != nil {
		return Value{}, Value{}, err
	}
	rv, err := r(rows)
	return lv, rv, err
}

// arith applies + - * / to two non-NULL values.
func arith(op string, l, r Value) (Value, error) {
	if op == "+" && l.Type() == TypeText && r.Type() == TypeText {
		return Text(l.Text0() + r.Text0()), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return Value{}, fmt.Errorf("relational: arithmetic on non-numeric values %s and %s", l, r)
	}
	if l.Type() == TypeInt && r.Type() == TypeInt && op != "/" {
		a, b := l.Int64(), r.Int64()
		switch op {
		case "+":
			return Int(a + b), nil
		case "-":
			return Int(a - b), nil
		}
		return Int(a * b), nil
	}
	a, b := l.Float64(), r.Float64()
	switch op {
	case "+":
		return Float(a + b), nil
	case "-":
		return Float(a - b), nil
	case "*":
		return Float(a * b), nil
	}
	if b == 0 {
		return Null(), nil
	}
	return Float(a / b), nil
}

func (c *compiler) in(x *InExpr) evalFn {
	arg := c.compile(x.X)
	list := make([]evalFn, len(x.List))
	for i, it := range x.List {
		list[i] = c.compile(it)
	}
	not := x.Not
	return func(rows []Row) (Value, error) {
		v, err := arg(rows)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		for _, item := range list {
			iv, err := item(rows)
			if err != nil {
				return Value{}, err
			}
			if Equal(v, iv) {
				return Bool(!not), nil
			}
		}
		return Bool(not), nil
	}
}

func (c *compiler) scalar(x *Call) evalFn {
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compile(a)
	}
	name := x.Name
	return func(rows []Row) (Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			v, err := a(rows)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v
		}
		return scalarCall(name, vals)
	}
}

func truthy(v Value) bool {
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

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte),
// case-insensitive as in MySQL's default collation. It is the greedy
// wildcard matcher: on a mismatch it only retries from the most recent %,
// one byte further on, so a match costs O(len(s)·len(pattern)) even for
// patterns such as '%a%a%a%b' that make naive backtracking exponential.
func likeMatch(s, pattern string) bool {
	s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	si, pi := 0, 0
	star, retry := -1, 0 // position of the last % and where its run would end next
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star, retry = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			retry++
			si, pi = retry, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// scalarCall applies a non-aggregate function to its evaluated arguments.
func scalarCall(name string, args []Value) (Value, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("relational: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
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
	return Value{}, fmt.Errorf("relational: unknown function %s", name)
}

// aggregates supported in grouped queries.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate walks an expression for aggregate calls.
func hasAggregate(e Expr) bool {
	return anyExpr(e, func(e Expr) bool {
		c, ok := e.(*Call)
		return ok && aggregateFuncs[c.Name]
	})
}

// anyExpr reports whether pred holds for e or for any expression inside
// it, visiting parents before children and left before right.
func anyExpr(e Expr, pred func(Expr) bool) bool {
	if pred(e) {
		return true
	}
	switch x := e.(type) {
	case *Binary:
		return anyExpr(x.L, pred) || anyExpr(x.R, pred)
	case *Unary:
		return anyExpr(x.X, pred)
	case *IsNullExpr:
		return anyExpr(x.X, pred)
	case *InExpr:
		return anyExpr(x.X, pred) || slices.ContainsFunc(x.List, func(e Expr) bool { return anyExpr(e, pred) })
	case *Call:
		return slices.ContainsFunc(x.Args, func(e Expr) bool { return anyExpr(e, pred) })
	}
	return false
}

// --- streaming aggregates ---

// aggSet is the aggregate calls of one grouped query. Each call folds the
// member rows of a group into its own accumulator as they stream past;
// the compiled call reads the accumulator of the group being output (cur).
type aggSet struct {
	calls []*aggCall
	cur   *group
	// members compiles aggregate arguments: every binding, no group.
	members *compiler
}

// aggCall is one compiled aggregate call. err is the call's own error
// (COUNT-only *, a wrong argument count), raised whenever it is read.
type aggCall struct {
	name     string
	star     bool
	distinct bool
	arg      evalFn
	err      error
}

// add registers a call and compiles its read.
func (s *aggSet) add(x *Call) evalFn {
	ac := &aggCall{name: x.Name, star: x.Star, distinct: x.Distinct}
	switch {
	case x.Star && x.Name != "COUNT":
		ac.err = fmt.Errorf("relational: %s(*) is not valid", x.Name)
	case !x.Star && len(x.Args) != 1:
		ac.err = fmt.Errorf("relational: %s expects 1 argument", x.Name)
	case !x.Star:
		ac.arg = s.members.compile(x.Args[0])
	}
	i := len(s.calls)
	s.calls = append(s.calls, ac)
	return func([]Row) (Value, error) { return ac.result(&s.cur.accs[i]) }
}

// group is one output group: its first member's rows, which non-aggregate
// expressions read, and one accumulator per aggregate call.
type group struct {
	rep  []Row
	accs []acc
}

// acc is the running state of one aggregate call over one group's members.
type acc struct {
	n       int64 // members (COUNT(*)) or non-NULL values folded
	seen    map[string]bool
	notInt  bool
	fs      float64
	is      int64
	best    Value
	evalErr error // first error evaluating the argument; folding stops there
	numErr  error // first non-numeric value under SUM or AVG
}

// fold adds one member row; key is scratch for DISTINCT's value keys.
func (ac *aggCall) fold(a *acc, rows []Row, key *[]byte) {
	if a.evalErr != nil || ac.err != nil {
		return
	}
	if ac.star {
		a.n++
		return
	}
	v, err := ac.arg(rows)
	if err != nil {
		a.evalErr = err
		return
	}
	if v.IsNull() {
		return
	}
	if ac.distinct {
		*key = append(append(append((*key)[:0], v.Type().String()...), ':'), v.String()...)
		if a.seen[string(*key)] {
			return
		}
		if a.seen == nil {
			a.seen = make(map[string]bool)
		}
		a.seen[string(*key)] = true
	}
	a.n++
	switch ac.name {
	case "SUM", "AVG":
		if a.numErr != nil {
			return
		}
		if !v.IsNumeric() {
			a.numErr = fmt.Errorf("relational: %s over non-numeric value %s", ac.name, v)
			return
		}
		if v.Type() != TypeInt {
			a.notInt = true
		}
		a.fs += v.Float64()
		a.is += v.Int64()
	case "MIN", "MAX":
		if a.n == 1 {
			a.best = v
		} else if c := Compare(v, a.best); (ac.name == "MIN" && c < 0) || (ac.name == "MAX" && c > 0) {
			a.best = v
		}
	}
}

// result is the call's value over the members folded into a.
func (ac *aggCall) result(a *acc) (Value, error) {
	switch {
	case ac.err != nil:
		return Value{}, ac.err
	case ac.star:
		return Int(a.n), nil
	case a.evalErr != nil:
		return Value{}, a.evalErr
	case ac.name == "COUNT":
		return Int(a.n), nil
	case a.n == 0:
		return Null(), nil
	}
	switch ac.name {
	case "SUM", "AVG":
		if a.numErr != nil {
			return Value{}, a.numErr
		}
		if ac.name == "AVG" {
			return Float(a.fs / float64(a.n)), nil
		}
		if a.notInt {
			return Float(a.fs), nil
		}
		return Int(a.is), nil
	}
	return a.best, nil
}
