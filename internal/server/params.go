package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"
)

// paramKind is what a declared query parameter's value must parse as.
type paramKind int

const (
	kindString   paramKind = iota // one value, taken as given
	kindStrings                   // every value of a repeated parameter
	kindInt                       // a decimal integer within the range
	kindFloat                     // a number within the range
	kindEnum                      // one of Enum
	kindBool                      // a flag: 1 or true
	kindDuration                  // a Go duration such as 25s, within the range
)

// param declares one query parameter of a route. This file is the only
// place request parameters are parsed (the errenvelope lint enforces it):
// serve checks every declared parameter before the handler runs and
// answers a malformed one with a 400 bad_request envelope naming it.
// A parameter given with an empty value counts as absent; undeclared
// parameters are ignored.
type param struct {
	Name string
	Kind paramKind
	// Min and Max bound an int, float or duration (in seconds), so a zero
	// Min makes it non-negative. Min is inclusive unless MinOpen; a zero
	// Max leaves the range open above.
	Min, Max float64
	MinOpen  bool
	Enum     []string
	Default  string // the value an absent parameter takes, as written in a URL
	Required bool   // absent or blank is a 400
}

// params holds a request's declared parameters, parsed to their kinds.
// A parameter that is absent and has no default is unset and reads as
// its kind's zero value.
type params struct {
	vals  map[string]any
	given map[string]bool
}

func (p params) str(name string) string        { s, _ := p.vals[name].(string); return s }
func (p params) strs(name string) []string     { s, _ := p.vals[name].([]string); return s }
func (p params) int(name string) int           { n, _ := p.vals[name].(int); return n }
func (p params) float(name string) float64     { f, _ := p.vals[name].(float64); return f }
func (p params) flag(name string) bool         { b, _ := p.vals[name].(bool); return b }
func (p params) dur(name string) time.Duration { d, _ := p.vals[name].(time.Duration); return d }

// has reports whether the request gave the parameter a non-empty value
// (any value, for a repeated one).
func (p params) has(name string) bool { return p.given[name] }

// requestParams checks the query string of r against decl.
func requestParams(decl []param, r *http.Request) (params, *v1Error) {
	return parseParams(decl, r.URL.Query())
}

// parseParams checks q against decl, in declaration order, and returns
// the first failure as a bad_request envelope naming its field.
func parseParams(decl []param, q url.Values) (params, *v1Error) {
	p := params{vals: make(map[string]any, len(decl)), given: make(map[string]bool, len(decl))}
	for _, d := range decl {
		raw := q.Get(d.Name)
		given, blank := raw != "", strings.TrimSpace(raw) == ""
		if d.Kind == kindStrings { // given by any value, even an empty one
			p.vals[d.Name] = q[d.Name]
			given = len(q[d.Name]) > 0
			blank = !given
		}
		if d.Required && blank {
			return p, &v1Error{Code: "bad_request", Field: d.Name, Message: d.Name + " is required"}
		}
		p.given[d.Name] = given
		if raw == "" {
			raw = d.Default
		}
		if raw == "" || d.Kind == kindStrings {
			continue
		}
		v, ok := d.parse(raw)
		if !ok {
			return p, &v1Error{Code: "bad_request", Field: d.Name,
				Message: fmt.Sprintf("%s %q is not %s", d.Name, raw, d.want())}
		}
		p.vals[d.Name] = v
	}
	return p, nil
}

// parse converts one non-empty value and reports whether it is valid.
func (d param) parse(raw string) (any, bool) {
	switch d.Kind {
	case kindInt:
		n, err := strconv.Atoi(raw)
		return n, err == nil && d.inRange(float64(n))
	case kindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		return f, err == nil && d.inRange(f)
	case kindDuration:
		t, err := time.ParseDuration(raw)
		return t, err == nil && d.inRange(t.Seconds())
	case kindEnum:
		return raw, slices.Contains(d.Enum, raw)
	case kindBool:
		return true, raw == "1" || raw == "true"
	}
	return raw, true
}

func (d param) inRange(f float64) bool {
	return (f > d.Min || f == d.Min && !d.MinOpen) && (d.Max == 0 || f <= d.Max)
}

// want describes the values d accepts, for error messages.
func (d param) want() string {
	switch d.Kind {
	case kindEnum:
		return "one of " + strings.Join(d.Enum, ", ")
	case kindBool:
		return "1 or true"
	}
	noun := [...]string{kindInt: "an integer", kindFloat: "a number", kindDuration: "a duration"}[d.Kind]
	switch {
	case math.IsInf(d.Min, -1):
		return noun
	case d.Max == 0:
		return fmt.Sprintf("%s >= %g", noun, d.Min)
	case d.MinOpen:
		return fmt.Sprintf("%s in (%g, %g]", noun, d.Min, d.Max)
	}
	return fmt.Sprintf("%s in [%g, %g]", noun, d.Min, d.Max)
}
