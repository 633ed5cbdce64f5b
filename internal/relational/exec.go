package relational

import (
	"fmt"
	"math"
	"strings"
)

// ResultSet is the outcome of a query: column labels plus rows.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// binding associates a table alias with a schema and the current row; a nil
// row stands for the NULL-extended side of a LEFT JOIN.
type binding struct {
	name   string
	schema *Schema
	row    Row
}

type evalContext struct {
	bindings []binding
	// group is non-nil while projecting grouped results.
	group *groupState
}

func (c *evalContext) resolve(ref *ColumnRef) (Value, error) {
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

// aggregates supported in grouped queries.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate walks an expression for aggregate calls.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		if aggregateFuncs[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *Unary:
		return hasAggregate(x.X)
	case *InExpr:
		if hasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasAggregate(a) {
				return true
			}
		}
	case *IsNullExpr:
		return hasAggregate(x.X)
	}
	return false
}

func eval(ctx *evalContext, e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		return ctx.resolve(x)
	case *Unary:
		v, err := eval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!truthy(v)), nil
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
		return evalBinary(ctx, x)
	case *InExpr:
		v, err := eval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		for _, item := range x.List {
			iv, err := eval(ctx, item)
			if err != nil {
				return Value{}, err
			}
			if Equal(v, iv) {
				return Bool(!x.Not), nil
			}
		}
		return Bool(x.Not), nil
	case *IsNullExpr:
		v, err := eval(ctx, x.X)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *Call:
		if aggregateFuncs[x.Name] {
			if ctx.group == nil {
				return Value{}, fmt.Errorf("relational: aggregate %s outside grouped query", x.Name)
			}
			return ctx.group.value(x)
		}
		return evalScalarCall(ctx, x)
	}
	return Value{}, fmt.Errorf("relational: cannot evaluate %T", e)
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

func evalBinary(ctx *evalContext, x *Binary) (Value, error) {
	// Short-circuit logic with SQL three-valued semantics collapsed to
	// two-valued (NULL operands yield NULL, filtered as false upstream).
	if x.Op == "AND" || x.Op == "OR" {
		l, err := eval(ctx, x.L)
		if err != nil {
			return Value{}, err
		}
		lt := !l.IsNull() && truthy(l)
		if x.Op == "AND" && !lt {
			return Bool(false), nil
		}
		if x.Op == "OR" && lt {
			return Bool(true), nil
		}
		r, err := eval(ctx, x.R)
		if err != nil {
			return Value{}, err
		}
		return Bool(!r.IsNull() && truthy(r)), nil
	}

	l, err := eval(ctx, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(ctx, x.R)
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

func evalScalarCall(ctx *evalContext, x *Call) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(ctx, a)
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

// groupState accumulates the member rows of one group and answers aggregate
// calls. Members are joined plan rows; bind positions a shared scratch
// context at one member, so aggregation allocates no per-member contexts.
type groupState struct {
	rows []jrow
	bind func(jrow) *evalContext
}

func (g *groupState) value(call *Call) (Value, error) {
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
		v, err := eval(g.bind(jr), call.Args[0])
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

// rowKey renders values into a composite grouping/dedup key.
func rowKey(vals []Value) string {
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
