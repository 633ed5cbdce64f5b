package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// oracleTerm draws a term from the families the rdf store tests use to
// stress N-Triples order (IRIs containing "> <", values with escaped and
// control bytes, literals with a language, a datatype or both, blank
// nodes), plus numeric lexical forms, NaN and infinities, so FILTER
// comparisons and ORDER BY meet numbers and mixed kinds.
func oracleTerm(rng *rand.Rand) rdf.Term {
	values := []string{"", "a", "ab", "a b", "a> <b", "a\\", "a\"", "a\nb", "\x01", "é", "m", "z",
		"3", "7", "10", "-0", "2.5e0", " 4 ", "nan", "NaN", "Infinity", "-Inf"}
	langs := []string{"en", "e", "en-GB"}
	types := []string{"http://t", "http://t>", "http://www.w3.org/2001/XMLSchema#double"}
	v := values[rng.Intn(len(values))]
	switch rng.Intn(6) {
	case 0:
		return rdf.NewIRI(v)
	case 1:
		return rdf.Term{Kind: rdf.Blank, Value: v}
	case 2:
		return rdf.NewLiteral(v)
	case 3:
		return rdf.NewLangLiteral(v, langs[rng.Intn(len(langs))])
	case 4:
		return rdf.NewTypedLiteral(v, types[rng.Intn(len(types))])
	default:
		return rdf.Term{Kind: rdf.Literal, Value: v, Lang: langs[rng.Intn(len(langs))], Datatype: types[rng.Intn(len(types))]}
	}
}

// oracleWorld is one random store together with what the brute-force
// evaluator enumerates over: every term of its triples, and the triples
// themselves by term key.
type oracleWorld struct {
	store    *rdf.Store
	universe []rdf.Term
	has      map[[3]string]bool
	pool     []rdf.Term // candidate constants, some in no triple
	preds    []rdf.Term
}

func newOracleWorld(rng *rand.Rand) *oracleWorld {
	w := &oracleWorld{store: rdf.NewStore(), has: map[[3]string]bool{},
		preds: []rdf.Term{rdf.NewIRI("p"), rdf.NewIRI("q> <r")}}
	for i := 0; i < 7; i++ {
		w.pool = append(w.pool, oracleTerm(rng))
	}
	seen := map[string]bool{}
	for i := 0; i < 25; i++ {
		tp := rdf.Triple{S: w.pool[rng.Intn(len(w.pool))], P: w.preds[rng.Intn(len(w.preds))], O: w.pool[rng.Intn(len(w.pool))]}
		if rng.Intn(10) == 0 {
			tp.P = w.pool[rng.Intn(len(w.pool))] // a predicate that is also a subject or object
		}
		w.store.Add(tp)
		w.has[[3]string{tp.S.Key(), tp.P.Key(), tp.O.Key()}] = true
		for _, t := range []rdf.Term{tp.S, tp.P, tp.O} {
			if !seen[t.Key()] {
				seen[t.Key()] = true
				w.universe = append(w.universe, t)
			}
		}
	}
	return w
}

var oracleVars = []string{"a", "b", "c", "d"}

// oracleQuery draws a query over the world's terms: BGPs whose patterns
// often repeat a variable, nested OPTIONAL and UNION groups, FILTERs of
// every kind, SELECT * or a projection (which may name a variable no
// pattern binds), DISTINCT, ORDER BY, LIMIT and OFFSET.
func (w *oracleWorld) query(rng *rand.Rand) *Query {
	q := &Query{Where: w.group(rng, 0)}
	if rng.Intn(3) > 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			q.Vars = append(q.Vars, append(oracleVars, "e")[rng.Intn(5)])
		}
	}
	q.Distinct = rng.Intn(3) == 0
	if rng.Intn(2) == 0 {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: oracleVars[rng.Intn(len(oracleVars))], Desc: rng.Intn(2) == 0})
		}
	}
	if rng.Intn(3) == 0 {
		q.HasLimit, q.Limit = true, rng.Intn(5)
	}
	if rng.Intn(3) == 0 {
		q.Offset = rng.Intn(4)
	}
	return q
}

func (w *oracleWorld) node(rng *rand.Rand, pred bool) Node {
	switch {
	case rng.Intn(10) < 6:
		return Var(oracleVars[rng.Intn(len(oracleVars))])
	case rng.Intn(15) == 0:
		return Const(rdf.NewIRI("absent"))
	case pred:
		return Const(w.preds[rng.Intn(len(w.preds))])
	}
	return Const(w.pool[rng.Intn(len(w.pool))])
}

func (w *oracleWorld) group(rng *rand.Rand, depth int) GroupGraphPattern {
	var g GroupGraphPattern
	for n := 1 + rng.Intn(2); n > 0; n-- {
		tp := TriplePattern{S: w.node(rng, false), P: w.node(rng, true), O: w.node(rng, false)}
		if rng.Intn(6) == 0 {
			v := Var(oracleVars[rng.Intn(len(oracleVars))])
			tp.S, tp.O = v, v
		}
		g.Triples = append(g.Triples, tp)
	}
	if depth < 2 && rng.Intn(3) == 0 {
		g.Optionals = append(g.Optionals, w.group(rng, depth+1))
	}
	if depth < 2 && rng.Intn(5) == 0 {
		alts := make([]GroupGraphPattern, 2+rng.Intn(2))
		for i := range alts {
			alts[i] = w.group(rng, depth+1)
		}
		g.Unions = append(g.Unions, alts)
	}
	if rng.Intn(3) == 0 {
		g.Filters = append(g.Filters, w.expr(rng, 0))
	}
	return g
}

var oracleRegexps = []*regexp.Regexp{regexp.MustCompile("^a"), regexp.MustCompile("b"),
	regexp.MustCompile("(?i)A"), regexp.MustCompile("^$"), regexp.MustCompile("[0-9]")}

func (w *oracleWorld) operand(rng *rand.Rand) Operand {
	if rng.Intn(10) < 7 {
		return Operand{IsVar: true, Var: oracleVars[rng.Intn(len(oracleVars))]}
	}
	consts := []rdf.Term{rdf.NewTypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewLiteral("m"), rdf.NewIRI("m"), w.pool[rng.Intn(len(w.pool))]}
	return Operand{Term: consts[rng.Intn(len(consts))]}
}

func (w *oracleWorld) expr(rng *rand.Rand, depth int) Expression {
	k := rng.Intn(7)
	if depth >= 2 && k < 2 {
		k = 6
	}
	switch k {
	case 0:
		return &LogicalExpr{Op: []string{"&&", "||"}[rng.Intn(2)], L: w.expr(rng, depth+1), R: w.expr(rng, depth+1)}
	case 1:
		return &NotExpr{X: w.expr(rng, depth+1)}
	case 2:
		return &BoundExpr{Var: oracleVars[rng.Intn(len(oracleVars))]}
	case 3:
		return &RegexExpr{X: w.operand(rng), Re: oracleRegexps[rng.Intn(len(oracleRegexps))]}
	case 4:
		return &ContainsExpr{X: w.operand(rng), Needle: []string{"a", "B", ""}[rng.Intn(3)]}
	}
	return &CompareExpr{Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], L: w.operand(rng), R: w.operand(rng)}
}

// bruteGroup evaluates a group by the engine's algebra (the BGP joined
// onto each input solution, then UNION blocks, then OPTIONAL left joins,
// then FILTERs) with the BGP found by enumerating assignments of its
// variables over every term in the store instead of by index lookups.
func (w *oracleWorld) bruteGroup(g *GroupGraphPattern, input []Binding) []Binding {
	var out []Binding
	for _, mu := range input {
		out = append(out, w.bruteBGP(g.Triples, mu)...)
	}
	for _, alts := range g.Unions {
		var next []Binding
		for i := range alts {
			next = append(next, w.bruteGroup(&alts[i], out)...)
		}
		out = next
	}
	for i := range g.Optionals {
		var next []Binding
		for _, mu := range out {
			if sub := w.bruteGroup(&g.Optionals[i], []Binding{mu}); len(sub) > 0 {
				next = append(next, sub...)
			} else {
				next = append(next, mu)
			}
		}
		out = next
	}
	for _, f := range g.Filters {
		var kept []Binding
		for _, mu := range out {
			if ok, err := refEvalExpr(f, mu); err == nil && ok {
				kept = append(kept, mu)
			}
		}
		out = kept
	}
	return out
}

// bruteBGP returns every extension of mu, over the store's terms, under
// which each pattern is a stored triple. Variables are assigned one at a
// time; an assignment is abandoned as soon as a pattern whose variables
// are all assigned is not in the store.
func (w *oracleWorld) bruteBGP(tps []TriplePattern, mu Binding) []Binding {
	var free []string
	for _, tp := range tps {
		for _, v := range tp.Vars() {
			if _, ok := mu[v]; !ok && !slices.Contains(free, v) {
				free = append(free, v)
			}
		}
	}
	cur := refClone(mu)
	term := func(n Node) (rdf.Term, bool) {
		if n.Kind == NodeTerm {
			return n.Term, true
		}
		t, ok := cur[n.Var]
		return t, ok
	}
	holds := func() bool {
		for _, tp := range tps {
			s, okS := term(tp.S)
			p, okP := term(tp.P)
			o, okO := term(tp.O)
			if okS && okP && okO && !w.has[[3]string{s.Key(), p.Key(), o.Key()}] {
				return false
			}
		}
		return true
	}
	var out []Binding
	var assign func(i int)
	assign = func(i int) {
		if !holds() {
			return
		}
		if i == len(free) {
			out = append(out, refClone(cur))
			return
		}
		for _, t := range w.universe {
			cur[free[i]] = t
			assign(i + 1)
		}
		delete(cur, free[i])
	}
	assign(0)
	return out
}

// brute answers q, without LIMIT and OFFSET, as a multiset of rows.
func (w *oracleWorld) brute(q *Query) (vars []string, rows []Binding) {
	sols := w.bruteGroup(&q.Where, []Binding{{}})
	vars = q.Vars
	if len(vars) == 0 {
		var all []string
		var walk func(g *GroupGraphPattern)
		walk = func(g *GroupGraphPattern) {
			for _, tp := range g.Triples {
				all = append(all, tp.Vars()...)
			}
			for _, alts := range g.Unions {
				for i := range alts {
					walk(&alts[i])
				}
			}
			for i := range g.Optionals {
				walk(&g.Optionals[i])
			}
		}
		walk(&q.Where)
		sort.Strings(all)
		vars = slices.Compact(all)
	}
	seen := map[string]bool{}
	for _, mu := range sols {
		row := Binding{}
		for _, v := range vars {
			if t, ok := mu[v]; ok {
				row[v] = t
			}
		}
		if k := rowKey(row, vars); q.Distinct {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		rows = append(rows, row)
	}
	return vars, rows
}

// rowKey identifies a row by the keys of its terms, in vars order.
func rowKey(row Binding, vars []string) string {
	key := make([]string, len(vars))
	for i, v := range vars {
		if t, ok := row[v]; ok {
			key[i] = t.Key()
		} else {
			key[i] = "(unbound)"
		}
	}
	return fmt.Sprintf("%q", key)
}

// compareRows orders two result rows by the ORDER BY keys, as far as the
// projection lets it see them: it stops at the first key it does not
// project.
func compareRows(a, b Binding, keys []OrderKey, vars []string) int {
	for _, k := range keys {
		if !slices.Contains(vars, k.Var) {
			return 0
		}
		ta, okA := a[k.Var]
		tb, okB := b[k.Var]
		c := compareTermsForOrder(ta, okA, tb, okB)
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// multiset renders rows as their sorted row keys.
func multiset(rows []Binding, vars []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r, vars)
	}
	sort.Strings(out)
	return out
}

// TestEvalMatchesOracle checks Eval on seeded random stores × random
// queries four ways: row for row and in order against referenceEval; as a
// multiset against the brute-force evaluator, with LIMIT and OFFSET
// dropped; sorted by its ORDER BY keys; and, with LIMIT and OFFSET, as the
// window of its own unlimited answer.
func TestEvalMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newOracleWorld(rng)
		for i := 0; i < 150; i++ {
			q := w.query(rng)
			got, err := Eval(w.store, q)
			if err != nil {
				t.Fatalf("seed %d query %d: Eval: %v", seed, i, err)
			}
			ref, err := referenceEval(w.store, q)
			if err != nil {
				t.Fatalf("seed %d query %d: referenceEval: %v", seed, i, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d query %d %+v:\nEval         %v\nreferenceEval %v", seed, i, q, got, ref)
			}

			all := *q
			all.HasLimit, all.Limit, all.Offset = false, 0, 0
			full, err := Eval(w.store, &all)
			if err != nil {
				t.Fatalf("seed %d query %d: Eval without LIMIT: %v", seed, i, err)
			}
			vars, want := w.brute(&all)
			if !slices.Equal(full.Vars, vars) {
				t.Fatalf("seed %d query %d %+v: Vars %v, oracle %v", seed, i, q, full.Vars, vars)
			}
			if g, o := multiset(full.Rows, vars), multiset(want, vars); !slices.Equal(g, o) {
				t.Fatalf("seed %d query %d %+v:\nEval   %v\noracle %v", seed, i, q, g, o)
			}
			for j := 1; j < len(full.Rows); j++ {
				if c := compareRows(full.Rows[j-1], full.Rows[j], q.OrderBy, full.Vars); c > 0 {
					t.Fatalf("seed %d query %d %+v: rows %d and %d out of ORDER BY order: %v, %v",
						seed, i, q, j-1, j, full.Rows[j-1], full.Rows[j])
				}
			}
			lo := min(q.Offset, len(full.Rows))
			hi := len(full.Rows)
			if q.HasLimit {
				hi = min(hi, lo+q.Limit)
			}
			if window := full.Rows[lo:hi]; len(got.Rows) != len(window) || len(window) > 0 && !reflect.DeepEqual(got.Rows, window) {
				t.Fatalf("seed %d query %d %+v: LIMIT/OFFSET rows %v, want %v", seed, i, q, got.Rows, window)
			}
		}
	}
}
