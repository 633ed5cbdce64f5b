package sparql

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Binding maps variable names to RDF terms.
type Binding map[string]rdf.Term

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

// Eval evaluates a parsed query against the store. The whole query reads
// one view of the store, so it never sees a write half done.
func Eval(store *rdf.Store, q *Query) (res *Results, err error) {
	store.Read(func(v rdf.View) { res, err = eval(v, q) })
	return res, err
}

// evaluator runs one query over one store view in term ids. Every
// variable of the query's patterns has a slot; a solution is a row of
// width ids in arena, rdf.Unbound in the slots it leaves unbound, and a
// solution sequence is a list of row numbers. Terms are read by id only
// for FILTER, ORDER BY and the final projection.
type evaluator struct {
	view  rdf.View
	slots map[string]int
	width int
	arena []rdf.TermID
	hits  []rdf.IDTriple // View.Match's buffer, reused by every pattern
}

// group is a GroupGraphPattern with its patterns compiled to slots and ids.
type group struct {
	patterns  []pattern
	filters   []Expression
	optionals []group
	unions    [][]group
}

// pattern is a compiled triple pattern: each position holds a variable's
// slot, or -1 and a constant's id. absent marks a constant the store does
// not hold, so the pattern matches nothing.
type pattern struct {
	slot   [3]int
	id     [3]rdf.TermID
	absent bool
}

func eval(v rdf.View, q *Query) (*Results, error) {
	ev := &evaluator{view: v, slots: map[string]int{}}
	collectGroupVars(&q.Where, func(name string) {
		if _, ok := ev.slots[name]; !ok {
			ev.slots[name] = len(ev.slots)
		}
	})
	ev.width = max(1, len(ev.slots))
	ev.arena = slices.Repeat([]rdf.TermID{rdf.Unbound}, ev.width) // row 0: nothing bound
	where := ev.compile(&q.Where)
	solutions, err := ev.evalGroup(&where, []int32{0})
	if err != nil {
		return nil, err
	}

	// SELECT * projects every pattern variable, in name order.
	vars := q.Vars
	if len(vars) == 0 {
		vars = slices.Sorted(maps.Keys(ev.slots))
	}

	// ORDER BY.
	if len(q.OrderBy) > 0 {
		slices.SortStableFunc(solutions, func(i, j int32) int {
			for _, k := range q.OrderBy {
				slot := ev.slot(k.Var)
				a, okA := ev.term(i, slot)
				b, okB := ev.term(j, slot)
				if c := compareTermsForOrder(a, okA, b, okB); c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}

	// DISTINCT on the ids of the projected variables: ids and terms map
	// one to one.
	cols := make([]int, len(vars))
	for i, name := range vars {
		cols[i] = ev.slot(name)
	}
	if q.Distinct {
		seen := map[string]struct{}{}
		var key []byte
		var kept []int32
		for _, r := range solutions {
			key = key[:0]
			for _, c := range cols {
				key = binary.LittleEndian.AppendUint32(key, uint32(ev.id(r, c)))
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			kept = append(kept, r)
		}
		solutions = kept
	}

	// OFFSET / LIMIT, before projecting, so a dropped row builds no map.
	if q.Offset >= len(solutions) {
		solutions = nil
	} else {
		solutions = solutions[q.Offset:]
	}
	if q.HasLimit && q.Limit < len(solutions) {
		solutions = solutions[:q.Limit]
	}
	var rows []Binding
	if solutions != nil {
		rows = make([]Binding, len(solutions))
	}
	for i, r := range solutions {
		proj := make(Binding, len(vars))
		for j, name := range vars {
			if t, ok := ev.term(r, cols[j]); ok {
				proj[name] = t
			}
		}
		rows[i] = proj
	}
	return &Results{Vars: vars, Rows: rows}, nil
}

// slot returns a variable's slot, or -1 for a variable no pattern binds.
func (ev *evaluator) slot(name string) int {
	if s, ok := ev.slots[name]; ok {
		return s
	}
	return -1
}

// id returns the id in row r's slot, rdf.Unbound for slot -1.
func (ev *evaluator) id(r int32, slot int) rdf.TermID {
	if slot < 0 {
		return rdf.Unbound
	}
	return ev.arena[int(r)*ev.width+slot]
}

// term returns the term in row r's slot, and false when it is unbound.
func (ev *evaluator) term(r int32, slot int) (rdf.Term, bool) {
	id := ev.id(r, slot)
	if id == rdf.Unbound {
		return rdf.Term{}, false
	}
	return ev.view.Term(id), true
}

func (ev *evaluator) compile(g *GroupGraphPattern) group {
	out := group{filters: g.Filters}
	for _, tp := range g.Triples {
		var p pattern
		for i, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.Kind == NodeVar {
				p.slot[i] = ev.slots[n.Var]
				continue
			}
			p.slot[i] = -1
			id, ok := ev.view.Lookup(n.Term)
			p.id[i], p.absent = id, p.absent || !ok
		}
		out.patterns = append(out.patterns, p)
	}
	for i := range g.Optionals {
		out.optionals = append(out.optionals, ev.compile(&g.Optionals[i]))
	}
	for _, alts := range g.Unions {
		compiled := make([]group, len(alts))
		for i := range alts {
			compiled[i] = ev.compile(&alts[i])
		}
		out.unions = append(out.unions, compiled)
	}
	return out
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

// evalGroup joins the group's patterns onto the input rows, expands its
// unions, left-joins its optionals, then applies its filters. It never
// writes to input, and may return it.
func (ev *evaluator) evalGroup(g *group, input []int32) ([]int32, error) {
	solutions := input
	for _, i := range ev.joinOrder(g, input) {
		var next []int32
		if tp := &g.patterns[i]; !tp.absent {
			for _, r := range solutions {
				next = ev.extend(tp, r, next)
			}
		}
		solutions = next
		if len(solutions) == 0 {
			break
		}
	}

	// UNION blocks: each block replaces the solution set with the
	// concatenation of its alternatives' extensions.
	for _, alts := range g.unions {
		var next []int32
		for i := range alts {
			sub, err := ev.evalGroup(&alts[i], solutions)
			if err != nil {
				return nil, err
			}
			next = append(next, sub...)
		}
		solutions = next
	}

	// OPTIONAL groups: left join.
	for i := range g.optionals {
		var next []int32
		one := make([]int32, 1)
		for _, r := range solutions {
			one[0] = r
			sub, err := ev.evalGroup(&g.optionals[i], one)
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				next = append(next, r)
			} else {
				next = append(next, sub...)
			}
		}
		solutions = next
	}

	// FILTERs.
	for _, f := range g.filters {
		var kept []int32
		for _, r := range solutions {
			ok, err := ev.evalExpr(f, r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		solutions = kept
	}
	return solutions, nil
}

// joinOrder is the greedy join order of the group's patterns: repeatedly
// the pattern with the most positions bound (constants, and variables
// bound in some input row or by an earlier pattern), the first on ties —
// the classic selectivity heuristic that keeps BGP joins from exploding.
func (ev *evaluator) joinOrder(g *group, input []int32) []int {
	if len(g.patterns) == 0 {
		return nil
	}
	bound := make([]bool, ev.width)
	for _, r := range input {
		for s, id := range ev.arena[int(r)*ev.width : int(r+1)*ev.width] {
			bound[s] = bound[s] || id != rdf.Unbound
		}
	}
	remaining := make([]int, len(g.patterns))
	for i := range remaining {
		remaining[i] = i
	}
	order := make([]int, 0, len(g.patterns))
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, pi := range remaining {
			score := 0
			for _, s := range g.patterns[pi].slot {
				if s < 0 || bound[s] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		pi := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, s := range g.patterns[pi].slot {
			if s >= 0 {
				bound[s] = true
			}
		}
		order = append(order, pi)
	}
	return order
}

// extend appends to out one new row per store match of the pattern under
// row r: a copy of r with the pattern's unbound variables filled in.
func (ev *evaluator) extend(tp *pattern, r int32, out []int32) []int32 {
	w := ev.width
	base := int(r) * w
	var ids [3]rdf.TermID
	for i, s := range tp.slot {
		if s < 0 {
			ids[i] = tp.id[i]
		} else {
			ids[i] = ev.arena[base+s]
		}
	}
	ev.hits = ev.view.Match(ids[0], ids[1], ids[2], ev.hits[:0])
	for _, h := range ev.hits {
		n := len(ev.arena) / w
		ev.arena = append(ev.arena, ev.arena[base:base+w]...)
		row := ev.arena[n*w:]
		ok := true
		for i, id := range [3]rdf.TermID{h.S, h.P, h.O} {
			if ids[i] != rdf.Unbound {
				continue
			}
			// The same variable twice in one pattern (?x p ?x) binds one term.
			if prev := row[tp.slot[i]]; prev != rdf.Unbound && prev != id {
				ok = false
				break
			}
			row[tp.slot[i]] = id
		}
		if !ok {
			ev.arena = ev.arena[:n*w]
			continue
		}
		out = append(out, int32(n))
	}
	return out
}

// evalExpr evaluates a filter expression on row r to an effective boolean
// value. Unbound variables make comparisons fail (false) rather than
// erroring, matching SPARQL's error-as-false semantics.
func (ev *evaluator) evalExpr(e Expression, r int32) (bool, error) {
	switch x := e.(type) {
	case *LogicalExpr:
		l, err := ev.evalExpr(x.L, r)
		if err != nil {
			return false, err
		}
		if x.Op == "&&" && !l {
			return false, nil
		}
		if x.Op == "||" && l {
			return true, nil
		}
		return ev.evalExpr(x.R, r)
	case *NotExpr:
		v, err := ev.evalExpr(x.X, r)
		return !v, err
	case *BoundExpr:
		return ev.id(r, ev.slot(x.Var)) != rdf.Unbound, nil
	case *CompareExpr:
		l, okL := ev.operand(x.L, r)
		rt, okR := ev.operand(x.R, r)
		if !okL || !okR {
			return false, nil
		}
		c, comparable := compareTerms(l, rt)
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
		t, ok := ev.operand(x.X, r)
		if !ok {
			return false, nil
		}
		return x.Re.MatchString(t.Value), nil
	case *ContainsExpr:
		t, ok := ev.operand(x.X, r)
		if !ok {
			return false, nil
		}
		return strings.Contains(strings.ToLower(t.Value), strings.ToLower(x.Needle)), nil
	}
	return false, fmt.Errorf("sparql: cannot evaluate %T", e)
}

// operand resolves a FILTER operand on row r.
func (ev *evaluator) operand(op Operand, r int32) (rdf.Term, bool) {
	if !op.IsVar {
		return op.Term, true
	}
	return ev.term(r, ev.slot(op.Var))
}

// numericValue extracts a float from a literal that looks numeric.
func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return f, err == nil
}

// compareTerms orders two terms for a FILTER comparison: numerically when
// both parse as numbers, lexically when both are of one kind. Terms of
// different kinds, and NaN against anything, are incomparable (false):
// such a pair is never =, <, <=, > or >=, and always !=.
func compareTerms(a, b rdf.Term) (int, bool) {
	if fa, okA := numericValue(a); okA {
		if fb, okB := numericValue(b); okB {
			if math.IsNaN(fa) || math.IsNaN(fb) {
				return 0, false
			}
			return cmp.Compare(fa, fb), true
		}
	}
	if a.Kind != b.Kind {
		return 0, false
	}
	return strings.Compare(a.Value, b.Value), true
}

// orderRank places a term in the ORDER BY sequence of SPARQL 1.1 §15.1:
// unbound, then blank nodes, then IRIs, then numeric literals (NaN
// excluded), then every other literal.
func orderRank(t rdf.Term, ok bool) (rank int, num float64) {
	switch {
	case !ok:
		return 0, 0
	case t.Kind == rdf.Blank:
		return 1, 0
	case t.Kind == rdf.IRI:
		return 2, 0
	}
	if f, isNum := numericValue(t); isNum && !math.IsNaN(f) {
		return 3, f
	}
	return 4, 0
}

// compareTermsForOrder is the total order ORDER BY sorts by: orderRank
// first, then numeric literals by value and every other term by its
// lexical form.
func compareTermsForOrder(a rdf.Term, okA bool, b rdf.Term, okB bool) int {
	ra, fa := orderRank(a, okA)
	rb, fb := orderRank(b, okB)
	switch {
	case ra != rb:
		return cmp.Compare(ra, rb)
	case ra == 0:
		return 0
	case ra == 3:
		return cmp.Compare(fa, fb)
	}
	return strings.Compare(a.Value, b.Value)
}
