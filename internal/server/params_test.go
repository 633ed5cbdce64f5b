package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// validRequired holds a value for every required parameter of the route
// table, so a probe of one parameter is otherwise a valid request.
var validRequired = map[string]string{
	"q":        "SELECT COUNT(*) FROM pages",
	"property": "measures",
	"seed":     "Sensor:temperat-0001",
}

// paramProbes derives from a declaration the values it must reject and
// the boundary values it must accept.
func paramProbes(d param) (bad, good []string) {
	bound := func(f float64) string { return fmt.Sprint(f) }
	switch d.Kind {
	case kindInt:
		bad = []string{"abc", "1.5", bound(d.Min - 1)}
		good = []string{bound(d.Min)}
	case kindFloat:
		bad = []string{"abc", "NaN"}
		if !math.IsInf(d.Min, -1) {
			bad = append(bad, bound(d.Min-0.5))
		}
		if d.MinOpen {
			bad, good = append(bad, bound(d.Min)), append(good, bound(d.Max))
		} else if !math.IsInf(d.Min, -1) {
			good = append(good, bound(d.Min))
		}
	case kindDuration:
		bad, good = []string{"abc", "-1s", "5"}, []string{"0s"}
	case kindEnum:
		bad, good = []string{"bogus", strings.ToUpper(d.Enum[0])}, d.Enum
	case kindBool:
		bad, good = []string{"0", "false", "yes"}, []string{"1", "true"}
	}
	if d.Max != 0 {
		bad, good = append(bad, bound(d.Max+1)), append(good, bound(d.Max))
	}
	return bad, good
}

// TestParamContract drives every declared parameter of the route table:
// a malformed or out-of-range value is a 400 bad_request naming the
// parameter in field, a boundary value is never refused for it, and a
// missing required parameter is a 400 naming it.
func TestParamContract(t *testing.T) {
	_, ts := newTestServer(t)
	do := func(rt route, set url.Values) (int, v1Error) {
		t.Helper()
		q := url.Values{}
		for _, d := range rt.Params {
			if v, ok := validRequired[d.Name]; ok && d.Required {
				q.Set(d.Name, v)
			}
		}
		for k, v := range set {
			q[k] = v
		}
		req, err := http.NewRequest(rt.Method, ts.URL+rt.Pattern+"?"+q.Encode(), strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct{ Error v1Error }
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error
	}
	for _, rt := range routes {
		for _, d := range rt.Params {
			if d.Required {
				if _, ok := validRequired[d.Name]; !ok {
					t.Fatalf("%s: no valid value for required %s", rt.Pattern, d.Name)
				}
				missing := []url.Values{{d.Name: nil}}
				if d.Kind != kindStrings { // a repeated parameter is given by any value
					missing = append(missing, url.Values{d.Name: {" "}})
				}
				for _, set := range missing {
					if code, e := do(rt, set); code != http.StatusBadRequest || e.Code != "bad_request" || e.Field != d.Name {
						t.Errorf("%s %s=%q: %d %+v, want 400 naming %s", rt.Pattern, d.Name, set[d.Name], code, e, d.Name)
					}
				}
			}
			bad, good := paramProbes(d)
			for _, v := range bad {
				if code, e := do(rt, url.Values{d.Name: {v}}); code != http.StatusBadRequest ||
					e.Code != "bad_request" || e.Field != d.Name || e.Message == "" {
					t.Errorf("%s %s %s=%s: %d %+v, want 400 bad_request naming it", rt.Method, rt.Pattern, d.Name, v, code, e)
				}
			}
			for _, v := range good {
				if code, e := do(rt, url.Values{d.Name: {v}}); code == http.StatusBadRequest && e.Field == d.Name {
					t.Errorf("%s %s %s=%s: 400 %+v, want it accepted", rt.Method, rt.Pattern, d.Name, v, e)
				}
			}
		}
	}
}

// TestBadParamsNotDefaulted pins requests that used to fall back to a
// default, or to turn a feature on, with a 200; each is now a 400 naming
// the offending parameter.
func TestBadParamsNotDefaulted(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct{ path, field string }{
		{"/api/autocomplete?prefix=temp&k=abc", "k"},
		{"/api/recommend?seed=Sensor:temperat-0001&k=-4", "k"},
		{"/viz/map.svg?q=temperature&cell=abc", "cell"},
		{"/api/search?mode=bogus", "mode"},
		{"/api/properties?by=bogus", "by"},
		{"/api/values?property=measures&counts=0", "counts"},
		{"/api/sql?q=SELECT+1&explain=0", "explain"},
		{"/api/search?filter=a:zz:b", "filter"},
		{"/api/admin/wal?from=-1", "from"},
	} {
		resp, body := request(t, http.MethodGet, ts.URL+c.path)
		var env struct{ Error v1Error }
		json.Unmarshal([]byte(body), &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" || env.Error.Field != c.field {
			t.Errorf("%s: %d %s, want 400 bad_request naming %s", c.path, resp.StatusCode, body, c.field)
		}
	}
}
