package relational

// SelectStmt is the SELECT shape supported by the engine.
type SelectStmt struct {
	Distinct  bool
	Exprs     []SelectExpr
	From      TableRef
	Joins     []JoinClause
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderKey
	Limit     int
	HasLimit  bool
	Offset    int
	HasOffset bool
}

// SelectExpr is one projected expression with an optional alias. A nil Expr
// means "*".
type SelectExpr struct {
	Expr  Expr // nil for *
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the effective binding name of the reference.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is [INNER|LEFT] JOIN table ON cond.
type JoinClause struct {
	Left  bool // LEFT OUTER join when true
	Table TableRef
	On    Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table string // "" when unqualified
	Name  string
}

// Binary is a binary operation. Op is one of
// = != < <= > >= + - * / AND OR LIKE.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// Call is a function call. Star marks COUNT(*). Distinct marks
// COUNT(DISTINCT x).
type Call struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*Literal) expr()    {}
func (*ColumnRef) expr()  {}
func (*Binary) expr()     {}
func (*Unary) expr()      {}
func (*InExpr) expr()     {}
func (*IsNullExpr) expr() {}
func (*Call) expr()       {}
