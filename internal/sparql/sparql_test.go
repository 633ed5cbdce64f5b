package sparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// fixtureStore builds a small sensor-metadata graph:
//
//	station1 type Station, locatedIn davos, altitude 1560
//	station2 type Station, locatedIn wannengrat, altitude 2440
//	sensor1  type Sensor, attachedTo station1, measures "temperature"
//	sensor2  type Sensor, attachedTo station2, measures "wind speed"
//	sensor3  type Sensor, attachedTo station2, measures "temperature"
func fixtureStore() *rdf.Store {
	st := rdf.NewStore()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://smr/" + s) }
	typ := rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }

	add(iri("station1"), typ, iri("Station"))
	add(iri("station2"), typ, iri("Station"))
	add(iri("station1"), iri("locatedIn"), iri("davos"))
	add(iri("station2"), iri("locatedIn"), iri("wannengrat"))
	add(iri("station1"), iri("altitude"), rdf.NewTypedLiteral("1560", "http://www.w3.org/2001/XMLSchema#integer"))
	add(iri("station2"), iri("altitude"), rdf.NewTypedLiteral("2440", "http://www.w3.org/2001/XMLSchema#integer"))
	add(iri("sensor1"), typ, iri("Sensor"))
	add(iri("sensor2"), typ, iri("Sensor"))
	add(iri("sensor3"), typ, iri("Sensor"))
	add(iri("sensor1"), iri("attachedTo"), iri("station1"))
	add(iri("sensor2"), iri("attachedTo"), iri("station2"))
	add(iri("sensor3"), iri("attachedTo"), iri("station2"))
	add(iri("sensor1"), iri("measures"), rdf.NewLiteral("temperature"))
	add(iri("sensor2"), iri("measures"), rdf.NewLiteral("wind speed"))
	add(iri("sensor3"), iri("measures"), rdf.NewLiteral("temperature"))
	return st
}

const prefix = "PREFIX smr: <http://smr/>\n"

func mustExec(t *testing.T, q string) *Results {
	t.Helper()
	res, err := Exec(fixtureStore(), q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func TestSimpleBGP(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?s WHERE { ?s a smr:Sensor } ORDER BY ?s`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d sensors, want 3", len(res.Rows))
	}
	if res.Rows[0]["s"].Value != "http://smr/sensor1" {
		t.Errorf("first = %v", res.Rows[0]["s"])
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?sensor ?site WHERE {
		?sensor smr:attachedTo ?station .
		?station smr:locatedIn ?site .
	} ORDER BY ?sensor`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if res.Rows[0]["site"].Value != "http://smr/davos" {
		t.Errorf("sensor1 site = %v", res.Rows[0]["site"])
	}
	if res.Rows[1]["site"].Value != "http://smr/wannengrat" {
		t.Errorf("sensor2 site = %v", res.Rows[1]["site"])
	}
}

func TestFilterNumeric(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?station WHERE {
		?station smr:altitude ?alt .
		FILTER (?alt > 2000)
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["station"].Value != "http://smr/station2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestFilterLogic(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:measures ?m .
		FILTER (?m = "temperature" || ?m = "wind speed")
	}`)
	if len(res.Rows) != 3 {
		t.Errorf("OR filter rows = %d, want 3", len(res.Rows))
	}
	res = mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:measures ?m .
		FILTER (!(?m = "temperature"))
	}`)
	if len(res.Rows) != 1 {
		t.Errorf("NOT filter rows = %d, want 1", len(res.Rows))
	}
	res = mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:attachedTo ?st .
		?st smr:altitude ?alt .
		FILTER (?alt > 2000 && ?alt < 3000)
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("AND filter rows = %d, want 2", len(res.Rows))
	}
}

func TestFilterRegexAndContains(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:measures ?m . FILTER (REGEX(?m, "^wind"))
	}`)
	if len(res.Rows) != 1 {
		t.Errorf("regex rows = %d", len(res.Rows))
	}
	res = mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:measures ?m . FILTER (REGEX(?m, "TEMP", "i"))
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("case-insensitive regex rows = %d", len(res.Rows))
	}
	res = mustExec(t, prefix+`SELECT ?s WHERE {
		?s smr:measures ?m . FILTER (CONTAINS(?m, "Speed"))
	}`)
	if len(res.Rows) != 1 {
		t.Errorf("contains rows = %d", len(res.Rows))
	}
}

func TestOptional(t *testing.T) {
	// Stations have locatedIn; sensors do not. OPTIONAL keeps sensors.
	res := mustExec(t, prefix+`SELECT ?x ?site WHERE {
		?x a ?type .
		OPTIONAL { ?x smr:locatedIn ?site }
	} ORDER BY ?x`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	bound, unbound := 0, 0
	for _, r := range res.Rows {
		if _, ok := r["site"]; ok {
			bound++
		} else {
			unbound++
		}
	}
	if bound != 2 || unbound != 3 {
		t.Errorf("bound=%d unbound=%d, want 2 and 3", bound, unbound)
	}
}

func TestBoundFilterWithOptional(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?x WHERE {
		?x a ?type .
		OPTIONAL { ?x smr:locatedIn ?site }
		FILTER (!BOUND(?site))
	}`)
	if len(res.Rows) != 3 {
		t.Errorf("unbound-site rows = %d, want 3 sensors", len(res.Rows))
	}
}

func TestDistinctAndProjection(t *testing.T) {
	res := mustExec(t, prefix+`SELECT DISTINCT ?m WHERE { ?s smr:measures ?m } ORDER BY ?m`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["m"].Value != "temperature" {
		t.Errorf("first = %v", res.Rows[0]["m"])
	}
}

func TestSelectStar(t *testing.T) {
	res := mustExec(t, prefix+`SELECT * WHERE { ?s smr:measures ?m }`)
	if len(res.Vars) != 2 {
		t.Errorf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestOrderByDescLimitOffset(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?station ?alt WHERE {
		?station smr:altitude ?alt
	} ORDER BY DESC(?alt) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0]["station"].Value != "http://smr/station2" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, prefix+`SELECT ?station WHERE {
		?station smr:altitude ?alt
	} ORDER BY ?alt OFFSET 1`)
	if len(res.Rows) != 1 || res.Rows[0]["station"].Value != "http://smr/station2" {
		t.Errorf("offset rows = %v", res.Rows)
	}
}

func TestSemicolonAndCommaShorthand(t *testing.T) {
	st := rdf.NewStore()
	n, err := Exec(st, prefix+`SELECT ?x WHERE { ?x a smr:Station ; smr:tag "a", "b" }`)
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	// Insert data matching the shorthand pattern and re-query.
	iri := rdf.NewIRI("http://smr/s")
	st.Add(rdf.Triple{S: iri, P: rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), O: rdf.NewIRI("http://smr/Station")})
	st.Add(rdf.Triple{S: iri, P: rdf.NewIRI("http://smr/tag"), O: rdf.NewLiteral("a")})
	st.Add(rdf.Triple{S: iri, P: rdf.NewIRI("http://smr/tag"), O: rdf.NewLiteral("b")})
	res, err := Exec(st, prefix+`SELECT ?x WHERE { ?x a smr:Station ; smr:tag "a", "b" }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("shorthand join rows = %d, want 1", len(res.Rows))
	}
}

func TestSameVariableTwiceInPattern(t *testing.T) {
	st := rdf.NewStore()
	st.Add(rdf.Triple{S: rdf.NewIRI("a"), P: rdf.NewIRI("p"), O: rdf.NewIRI("a")})
	st.Add(rdf.Triple{S: rdf.NewIRI("b"), P: rdf.NewIRI("p"), O: rdf.NewIRI("c")})
	res, err := Exec(st, `SELECT ?x WHERE { ?x <p> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["x"].Value != "a" {
		t.Errorf("self-loop rows = %v", res.Rows)
	}
}

func TestEmptyResultOnNoMatch(t *testing.T) {
	res := mustExec(t, prefix+`SELECT ?s WHERE { ?s smr:nosuch ?o }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE`,
		`SELECT ?x WHERE { ?x`,
		`SELECT ?x WHERE { ?x <p> }`,
		`SELECT ?x WHERE { ?x <p> ?y } trailing`,
		`PREFIX foo <http://x/> SELECT ?x WHERE { ?x foo:p ?y }`,
		`SELECT ?x WHERE { ?x unknown:p ?y }`,
		`SELECT ?x WHERE { ?x <p> ?y FILTER ?y }`,
		`SELECT ?x WHERE { FILTER (BOUND(1)) }`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("no parse error for %q", q)
		}
	}
}

// TestBadRegexErrors checks that an invalid REGEX pattern is a parse error,
// whether the pattern it filters has zero rows, one row or more.
func TestBadRegexErrors(t *testing.T) {
	for _, where := range []string{
		`?s smr:nomatch ?o`, // zero rows
		`?s smr:measures "wind speed" . ?s smr:measures ?o`, // one row
		`?s smr:measures ?o`, // three rows
	} {
		for _, filter := range []string{`REGEX(?o, "(")`, `REGEX(?o, "[", "i")`} {
			q := prefix + `SELECT ?o WHERE { ` + where + ` FILTER (` + filter + `) }`
			if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), "parse error") {
				t.Errorf("Parse(%q) error = %v, want a parse error", q, err)
			}
			if _, err := Exec(fixtureStore(), q); err == nil || !strings.Contains(err.Error(), "bad REGEX pattern") {
				t.Errorf("Exec(%q) error = %v, want bad REGEX pattern", q, err)
			}
		}
	}
	// The "i" flag still applies.
	res := mustExec(t, prefix+`SELECT ?o WHERE { ?s smr:measures ?o FILTER (REGEX(?o, "^WIND", "i")) }`)
	if len(res.Rows) != 1 {
		t.Errorf("case-insensitive regex rows = %d, want 1", len(res.Rows))
	}
}

func TestUnknownPrefixError(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x nope:p ?y }`); err == nil {
		t.Error("unknown prefix accepted")
	}
}

func TestLargerJoinSelectivity(t *testing.T) {
	// Build a chain graph and query a 3-hop path to exercise the greedy
	// join ordering.
	st := rdf.NewStore()
	p := rdf.NewIRI("http://p/next")
	for i := 0; i < 100; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://n/%d", i)),
			P: p,
			O: rdf.NewIRI(fmt.Sprintf("http://n/%d", i+1)),
		})
	}
	res, err := Exec(st, `SELECT ?a ?d WHERE {
		?a <http://p/next> ?b .
		?b <http://p/next> ?c .
		?c <http://p/next> ?d .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 98 {
		t.Errorf("3-hop paths = %d, want 98", len(res.Rows))
	}
}
