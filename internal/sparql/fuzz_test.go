package sparql

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
)

// FuzzParseSPARQL drives the SPARQL parser with arbitrary text: Parse never
// panics, and every query it accepts evaluates on a small fixture store
// without panicking (an evaluation error is an answer, not a failure) and
// to what referenceEval returns, row for row.
// Queries with more than four triple patterns are parsed but not
// evaluated: unconnected patterns multiply, and the point is the
// evaluator's handling of what the parser accepts, not its cost. The
// checked-in corpus under testdata/fuzz holds the queries of the HTTP
// SPARQL goldens and of this package's tests.
func FuzzParseSPARQL(f *testing.F) {
	st := fixtureStore()
	for _, tp := range []rdf.Triple{
		{S: rdf.NewIRI("smr://page/Sensor:S1"), P: rdf.NewIRI("smr://prop/measures"), O: rdf.NewLiteral("wind speed")},
		{S: rdf.NewIRI("smr://page/Sensor:S1"), P: rdf.NewIRI("smr://prop/samplingrate"), O: rdf.NewLiteral("60")},
		{S: rdf.NewIRI("smr://page/Sensor:S2"), P: rdf.NewIRI("smr://prop/status"), O: rdf.NewLangLiteral("retired", "en")},
	} {
		st.Add(tp)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil || patterns(q.Where) > 4 {
			return
		}
		got, err := Eval(st, q)
		ref, refErr := referenceEval(st, q)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("Eval(%q) = %v, %v; referenceEval = %v, %v", src, got, err, ref, refErr)
		}
	})
}

// patterns counts the triple patterns of a group and its nested groups.
func patterns(g GroupGraphPattern) int {
	n := len(g.Triples)
	for _, o := range g.Optionals {
		n += patterns(o)
	}
	for _, alts := range g.Unions {
		for _, a := range alts {
			n += patterns(a)
		}
	}
	return n
}
