package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Binding maps variable names to RDF terms.
type Binding map[string]rdf.Term

func (b Binding) clone() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Results is the solution sequence of a query.
type Results struct {
	Vars []string
	Rows []Binding
}

// Exec parses and evaluates a query against the store.
func Exec(store *rdf.Store, query string) (*Results, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Eval(store, q)
}

// Eval evaluates a parsed query against the store.
func Eval(store *rdf.Store, q *Query) (*Results, error) {
	solutions, err := evalGroup(store, &q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}

	// Determine output variables.
	vars := q.Vars
	if len(vars) == 0 {
		seen := map[string]bool{}
		collectGroupVars(&q.Where, func(v string) {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		})
		sort.Strings(vars)
	}

	// ORDER BY.
	if len(q.OrderBy) > 0 {
		sort.SliceStable(solutions, func(i, j int) bool {
			for _, k := range q.OrderBy {
				a, okA := solutions[i][k.Var]
				b, okB := solutions[j][k.Var]
				c := compareTermsForOrder(a, okA, b, okB)
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// Projection (+ DISTINCT on the projected values).
	var rows []Binding
	var seen map[string]bool
	if q.Distinct {
		seen = map[string]bool{}
	}
	for _, sol := range solutions {
		proj := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := sol[v]; ok {
				proj[v] = t
			}
		}
		if q.Distinct {
			key := projectionKey(proj, vars)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		rows = append(rows, proj)
	}

	// OFFSET / LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.HasLimit && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Results{Vars: vars, Rows: rows}, nil
}

func projectionKey(b Binding, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.Key())
		}
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

func collectGroupVars(g *GroupGraphPattern, visit func(string)) {
	for _, tp := range g.Triples {
		for _, v := range tp.Vars() {
			visit(v)
		}
	}
	for _, alts := range g.Unions {
		for i := range alts {
			collectGroupVars(&alts[i], visit)
		}
	}
	for i := range g.Optionals {
		collectGroupVars(&g.Optionals[i], visit)
	}
}

// evalGroup joins the group's triples onto the incoming bindings, left-joins
// optionals, then applies filters.
func evalGroup(store *rdf.Store, g *GroupGraphPattern, input []Binding) ([]Binding, error) {
	solutions := input
	// Greedy join order: repeatedly pick the pattern with the most bound
	// positions under the current variable set — the classic selectivity
	// heuristic that keeps BGP joins from exploding.
	remaining := make([]TriplePattern, len(g.Triples))
	copy(remaining, g.Triples)
	boundVars := map[string]bool{}
	for _, b := range input {
		for v := range b {
			boundVars[v] = true
		}
	}
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, tp := range remaining {
			score := 0
			for _, n := range []Node{tp.S, tp.P, tp.O} {
				if n.Kind == NodeTerm || (n.Kind == NodeVar && boundVars[n.Var]) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, v := range tp.Vars() {
			boundVars[v] = true
		}

		var next []Binding
		for _, b := range solutions {
			matches := matchPattern(store, tp, b)
			next = append(next, matches...)
		}
		solutions = next
		if len(solutions) == 0 {
			break
		}
	}

	// UNION blocks: each block replaces the solution set with the
	// concatenation of its alternatives' extensions.
	for _, alts := range g.Unions {
		var next []Binding
		for i := range alts {
			sub, err := evalGroup(store, &alts[i], solutions)
			if err != nil {
				return nil, err
			}
			next = append(next, sub...)
		}
		solutions = next
	}

	// OPTIONAL groups: left join.
	for i := range g.Optionals {
		var next []Binding
		for _, b := range solutions {
			sub, err := evalGroup(store, &g.Optionals[i], []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				next = append(next, b)
			} else {
				next = append(next, sub...)
			}
		}
		solutions = next
	}

	// FILTERs.
	for _, f := range g.Filters {
		var kept []Binding
		for _, b := range solutions {
			ok, err := evalExpr(f, b)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, b)
			}
		}
		solutions = kept
	}
	return solutions, nil
}

// matchPattern extends one binding with all store matches of the pattern.
func matchPattern(store *rdf.Store, tp TriplePattern, b Binding) []Binding {
	resolve := func(n Node) (*rdf.Term, string) {
		if n.Kind == NodeTerm {
			t := n.Term
			return &t, ""
		}
		if t, ok := b[n.Var]; ok {
			tt := t
			return &tt, ""
		}
		return nil, n.Var
	}
	s, sVar := resolve(tp.S)
	p, pVar := resolve(tp.P)
	o, oVar := resolve(tp.O)

	var out []Binding
	for _, t := range store.Match(s, p, o) {
		nb := b.clone()
		ok := true
		bind := func(v string, term rdf.Term) {
			if v == "" {
				return
			}
			if prev, exists := nb[v]; exists {
				// same variable twice in one pattern (e.g. ?x p ?x)
				if prev != term {
					ok = false
				}
				return
			}
			nb[v] = term
		}
		bind(sVar, t.S)
		bind(pVar, t.P)
		bind(oVar, t.O)
		if ok {
			out = append(out, nb)
		}
	}
	return out
}

// evalExpr evaluates a filter expression to an effective boolean value.
// Unbound variables make comparisons fail (false) rather than erroring,
// matching SPARQL's error-as-false semantics.
func evalExpr(e Expression, b Binding) (bool, error) {
	switch x := e.(type) {
	case *LogicalExpr:
		l, err := evalExpr(x.L, b)
		if err != nil {
			return false, err
		}
		if x.Op == "&&" && !l {
			return false, nil
		}
		if x.Op == "||" && l {
			return true, nil
		}
		return evalExpr(x.R, b)
	case *NotExpr:
		v, err := evalExpr(x.X, b)
		return !v, err
	case *BoundExpr:
		_, ok := b[x.Var]
		return ok, nil
	case *CompareExpr:
		l, okL := resolveOperand(x.L, b)
		r, okR := resolveOperand(x.R, b)
		if !okL || !okR {
			return false, nil
		}
		c, comparable := compareTerms(l, r)
		if !comparable {
			return false, nil
		}
		switch x.Op {
		case "=":
			return c == 0, nil
		case "!=":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
		return false, fmt.Errorf("sparql: unknown comparison %q", x.Op)
	case *RegexExpr:
		t, ok := resolveOperand(x.X, b)
		if !ok {
			return false, nil
		}
		return x.Re.MatchString(t.Value), nil
	case *ContainsExpr:
		t, ok := resolveOperand(x.X, b)
		if !ok {
			return false, nil
		}
		return strings.Contains(strings.ToLower(t.Value), strings.ToLower(x.Needle)), nil
	}
	return false, fmt.Errorf("sparql: cannot evaluate %T", e)
}

func resolveOperand(op Operand, b Binding) (rdf.Term, bool) {
	if !op.IsVar {
		return op.Term, true
	}
	t, ok := b[op.Var]
	return t, ok
}

// numericValue extracts a float from a literal that looks numeric.
func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return f, err == nil
}

// compareTerms orders two terms: numerically when both parse as numbers,
// lexically otherwise; terms of different kinds are incomparable except for
// (in)equality, which the caller reads from c != 0.
func compareTerms(a, b rdf.Term) (int, bool) {
	if fa, okA := numericValue(a); okA {
		if fb, okB := numericValue(b); okB {
			switch {
			case fa < fb:
				return -1, true
			case fa > fb:
				return 1, true
			default:
				return 0, true
			}
		}
	}
	if a.Kind != b.Kind {
		// Only equality-style comparison is meaningful.
		if a.Key() == b.Key() {
			return 0, true
		}
		return -1, true
	}
	return strings.Compare(a.Value, b.Value), true
}

// compareTermsForOrder is a total order for ORDER BY: unbound first, then by
// numeric/lexical comparison.
func compareTermsForOrder(a rdf.Term, okA bool, b rdf.Term, okB bool) int {
	switch {
	case !okA && !okB:
		return 0
	case !okA:
		return -1
	case !okB:
		return 1
	}
	c, _ := compareTerms(a, b)
	return c
}
