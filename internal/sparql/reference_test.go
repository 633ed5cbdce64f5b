package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// referenceEval is the map-based evaluator: every solution is a Binding
// map, cloned for each pattern match, and every pattern match is a slice
// of decoded triples read under a lock of its own. Eval must return what it returns, row for row and in
// order. It shares only the term comparisons (compareTerms,
// compareTermsForOrder) with Eval.
func referenceEval(store *rdf.Store, q *Query) (*Results, error) {
	solutions, err := refEvalGroup(store, &q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}

	// Determine output variables.
	vars := q.Vars
	if len(vars) == 0 {
		seen := map[string]bool{}
		refCollectGroupVars(&q.Where, func(v string) {
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
			key := refProjectionKey(proj, vars)
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

func refClone(b Binding) Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

func refProjectionKey(b Binding, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.Key())
		}
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

func refCollectGroupVars(g *GroupGraphPattern, visit func(string)) {
	for _, tp := range g.Triples {
		for _, v := range tp.Vars() {
			visit(v)
		}
	}
	for _, alts := range g.Unions {
		for i := range alts {
			refCollectGroupVars(&alts[i], visit)
		}
	}
	for i := range g.Optionals {
		refCollectGroupVars(&g.Optionals[i], visit)
	}
}

// refEvalGroup joins the group's triples onto the incoming bindings,
// left-joins optionals, then applies filters.
func refEvalGroup(store *rdf.Store, g *GroupGraphPattern, input []Binding) ([]Binding, error) {
	solutions := input
	// Greedy join order: repeatedly pick the pattern with the most bound
	// positions under the current variable set.
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
			matches := refMatchPattern(store, tp, b)
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
			sub, err := refEvalGroup(store, &alts[i], solutions)
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
			sub, err := refEvalGroup(store, &g.Optionals[i], []Binding{b})
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
			ok, err := refEvalExpr(f, b)
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

// refMatchPattern extends one binding with all store matches of the
// pattern.
func refMatchPattern(store *rdf.Store, tp TriplePattern, b Binding) []Binding {
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
	for _, t := range refStoreMatch(store, s, p, o) {
		nb := refClone(b)
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

// refStoreMatch returns the triples matching the pattern, nil components
// being wildcards, decoded in the order View.Match finds them, under a
// read lock of its own.
func refStoreMatch(store *rdf.Store, s, p, o *rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	store.Read(func(v rdf.View) {
		ids := [3]rdf.TermID{rdf.Unbound, rdf.Unbound, rdf.Unbound}
		for i, t := range []*rdf.Term{s, p, o} {
			if t != nil {
				id, ok := v.Lookup(*t)
				if !ok {
					return
				}
				ids[i] = id
			}
		}
		for _, e := range v.Match(ids[0], ids[1], ids[2], nil) {
			out = append(out, rdf.Triple{S: v.Term(e.S), P: v.Term(e.P), O: v.Term(e.O)})
		}
	})
	return out
}

// refEvalExpr evaluates a filter expression to an effective boolean value.
// Unbound variables make comparisons fail (false) rather than erroring.
func refEvalExpr(e Expression, b Binding) (bool, error) {
	switch x := e.(type) {
	case *LogicalExpr:
		l, err := refEvalExpr(x.L, b)
		if err != nil {
			return false, err
		}
		if x.Op == "&&" && !l {
			return false, nil
		}
		if x.Op == "||" && l {
			return true, nil
		}
		return refEvalExpr(x.R, b)
	case *NotExpr:
		v, err := refEvalExpr(x.X, b)
		return !v, err
	case *BoundExpr:
		_, ok := b[x.Var]
		return ok, nil
	case *CompareExpr:
		l, okL := refResolveOperand(x.L, b)
		r, okR := refResolveOperand(x.R, b)
		if !okL || !okR {
			return false, nil
		}
		c, comparable := compareTerms(l, r)
		if !comparable {
			return x.Op == "!=", nil
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
		t, ok := refResolveOperand(x.X, b)
		if !ok {
			return false, nil
		}
		return x.Re.MatchString(t.Value), nil
	case *ContainsExpr:
		t, ok := refResolveOperand(x.X, b)
		if !ok {
			return false, nil
		}
		return strings.Contains(strings.ToLower(t.Value), strings.ToLower(x.Needle)), nil
	}
	return false, fmt.Errorf("sparql: cannot evaluate %T", e)
}

func refResolveOperand(op Operand, b Binding) (rdf.Term, bool) {
	if !op.IsVar {
		return op.Term, true
	}
	t, ok := b[op.Var]
	return t, ok
}
