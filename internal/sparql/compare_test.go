package sparql

import (
	"slices"
	"testing"

	"repro/internal/rdf"
)

// mixedStore holds one object of each troublesome kind: an IRI, a
// literal that parses as NaN, a number and a literal that parses as +Inf.
func mixedStore() *rdf.Store {
	st := rdf.NewStore()
	s, p := rdf.NewIRI("s"), rdf.NewIRI("p")
	for _, o := range []rdf.Term{
		rdf.NewIRI("z"),
		rdf.NewLiteral("nan"),
		rdf.NewTypedLiteral("7", "http://www.w3.org/2001/XMLSchema#double"),
		rdf.NewLiteral("Infinity"),
	} {
		st.Add(rdf.Triple{S: s, P: p, O: o})
	}
	return st
}

// objects runs q over mixedStore and returns the values of ?o in order.
func objects(t *testing.T, q string) []string {
	t.Helper()
	res, err := Exec(mixedStore(), q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r["o"].Value)
	}
	return out
}

// TestFilterComparisonSemantics pins FILTER comparisons across kinds and
// with NaN: NaN is never =, <, <=, > or >= anything (and always !=); terms
// of different kinds are never =, <, <=, > or >= (and always !=); numbers
// compare by value and terms of one kind by lexical form.
func TestFilterComparisonSemantics(t *testing.T) {
	for _, c := range []struct {
		filter string
		want   []string
	}{
		// NaN is not equal to a number, nor to itself.
		{`?o = 3`, nil},
		{`?o = "nan"`, nil},
		{`?o != "nan"`, []string{"z", "nan", "7", "Infinity"}},
		{`?o < 8`, []string{"7"}},
		{`?o >= 7`, []string{"7", "Infinity"}},
		{`?o <= "nan"`, nil},
		// An IRI against a literal: neither order holds. Literals that do
		// not both parse as numbers compare by lexical form.
		{`?o < "m"`, []string{"7", "Infinity"}},
		{`"m" < ?o`, []string{"nan"}},
		{`?o > "m"`, []string{"nan"}},
		{`?o = "z"`, nil},
		{`?o != "z"`, []string{"z", "nan", "7", "Infinity"}},
		// IRIs compare with IRIs.
		{`?o = <z>`, []string{"z"}},
		{`?o <= <z>`, []string{"z"}},
		{`?o < <z>`, nil},
		{`?o != <z>`, []string{"nan", "7", "Infinity"}},
	} {
		got := objects(t, `SELECT ?o WHERE { <s> <p> ?o FILTER (`+c.filter+`) } ORDER BY ?o`)
		slices.Sort(got)
		want := slices.Clone(c.want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("FILTER(%s) = %q, want %q", c.filter, got, want)
		}
	}
}

// TestOrderByTotalOrder pins ORDER BY to SPARQL 1.1 §15.1: unbound, then
// blank nodes, then IRIs, then literals, numeric ones (NaN excluded) first
// by value and the rest by lexical form; DESC is the exact reverse.
func TestOrderByTotalOrder(t *testing.T) {
	asc := objects(t, `SELECT ?o WHERE { <s> <p> ?o } ORDER BY ?o`)
	if want := []string{"z", "7", "Infinity", "nan"}; !slices.Equal(asc, want) {
		t.Errorf("ORDER BY ?o = %q, want %q", asc, want)
	}
	desc := objects(t, `SELECT ?o WHERE { <s> <p> ?o } ORDER BY DESC(?o)`)
	slices.Reverse(desc)
	if !slices.Equal(desc, asc) {
		t.Errorf("ORDER BY DESC(?o) reversed = %q, want %q", desc, asc)
	}

	blank := rdf.Term{Kind: rdf.Blank, Value: "zz"}
	terms := []rdf.Term{rdf.NewLiteral("b"), rdf.NewTypedLiteral("10", "http://t"), rdf.NewLiteral("NaN"),
		rdf.NewIRI("a"), blank, rdf.NewLiteral("-2"), rdf.NewLangLiteral("a", "en"), rdf.NewLiteral("2.5")}
	// unbound, blank, IRI, numbers by value, then the rest by lexical form
	wantRank := []int{0, 1, 2, 3, 3, 3, 4, 4, 4}
	wantValue := []string{"", "zz", "a", "-2", "2.5", "10", "NaN", "a", "b"}
	var got []int
	var gotValue []string
	sorted := append([]rdf.Term{{}}, terms...)
	bound := func(t rdf.Term) bool { return t != rdf.Term{} }
	slices.SortStableFunc(sorted, func(a, b rdf.Term) int { return compareTermsForOrder(a, bound(a), b, bound(b)) })
	for _, term := range sorted {
		r, _ := orderRank(term, bound(term))
		got = append(got, r)
		gotValue = append(gotValue, term.Value)
	}
	if !slices.Equal(got, wantRank) || !slices.Equal(gotValue, wantValue) {
		t.Errorf("sorted ranks %v values %q, want %v %q", got, gotValue, wantRank, wantValue)
	}
}
