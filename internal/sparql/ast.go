// Package sparql implements the SPARQL subset the Sensor Metadata Repository
// uses to query its RDF graphs: SELECT with basic graph patterns, FILTER,
// OPTIONAL, DISTINCT, ORDER BY, LIMIT and OFFSET, plus PREFIX declarations.
// Queries in the paper's system combine SQL (internal/relational) with
// SPARQL; internal/smr stitches the two result sets together.
package sparql

import (
	"regexp"

	"repro/internal/rdf"
)

// NodeKind says whether a pattern position is a variable or a constant term.
type NodeKind uint8

const (
	// NodeVar is a ?variable.
	NodeVar NodeKind = iota
	// NodeTerm is a constant RDF term.
	NodeTerm
)

// Node is one position (subject/predicate/object) of a triple pattern.
type Node struct {
	Kind NodeKind
	Var  string   // when NodeVar
	Term rdf.Term // when NodeTerm
}

// Var returns a variable node.
func Var(name string) Node { return Node{Kind: NodeVar, Var: name} }

// Const returns a constant node.
func Const(t rdf.Term) Node { return Node{Kind: NodeTerm, Term: t} }

// TriplePattern is one pattern in a basic graph pattern.
type TriplePattern struct {
	S, P, O Node
}

// Vars returns the variable names used in the pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.Kind == NodeVar {
			out = append(out, n.Var)
		}
	}
	return out
}

// GroupGraphPattern is a BGP with filters, optional sub-groups and unions,
// evaluated in order: triples joined first, unions expanded (each union is
// a list of alternative groups whose solutions concatenate), optionals
// left-joined, filters applied to every candidate solution.
type GroupGraphPattern struct {
	Triples   []TriplePattern
	Filters   []Expression
	Optionals []GroupGraphPattern
	Unions    [][]GroupGraphPattern
}

// Query is a parsed SELECT query.
type Query struct {
	Prefixes map[string]string
	Vars     []string // empty means SELECT *
	Distinct bool
	Where    GroupGraphPattern
	OrderBy  []OrderKey
	Limit    int
	HasLimit bool
	Offset   int
}

// OrderKey is one ORDER BY key (a variable, optionally DESC).
type OrderKey struct {
	Var  string
	Desc bool
}

// Expression is a FILTER expression node.
type Expression interface{ expr() }

// CompareExpr compares two operands with one of = != < <= > >=.
type CompareExpr struct {
	Op   string
	L, R Operand
}

// LogicalExpr combines expressions with && or ||.
type LogicalExpr struct {
	Op   string // "&&" or "||"
	L, R Expression
}

// NotExpr negates an expression.
type NotExpr struct{ X Expression }

// BoundExpr is BOUND(?x).
type BoundExpr struct{ Var string }

// RegexExpr is REGEX(?x, "pattern") with optional "i" flag. The parser
// compiles the pattern, the flag applied as a (?i) prefix, so an invalid
// pattern is a parse error whatever the data.
type RegexExpr struct {
	X  Operand
	Re *regexp.Regexp
}

// ContainsExpr is CONTAINS(?x, "needle").
type ContainsExpr struct {
	X      Operand
	Needle string
}

func (*CompareExpr) expr()  {}
func (*LogicalExpr) expr()  {}
func (*NotExpr) expr()      {}
func (*BoundExpr) expr()    {}
func (*RegexExpr) expr()    {}
func (*ContainsExpr) expr() {}

// Operand is a variable or constant inside a FILTER expression.
type Operand struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}
