package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestSPARQLBodyEncodesLikeMaps checks that the /api/sparql body is byte
// for byte what encodeJSON makes of the Vars and the rows copied into
// []map[string]string, for values JSON escapes (HTML characters, control
// bytes, invalid UTF-8, the JavaScript line separators), duplicated,
// unbound and no variables, rows with no bound variable, and no rows.
func TestSPARQLBodyEncodesLikeMaps(t *testing.T) {
	values := []string{"", "plain", `q"uote\back`, "<b>&amp;</b>", "tab\tnl\nnul\x00\x1f", "bad\xff\xfeutf8",
		"line\u2028para\u2029", "été 🌡", "\b\f\r"}
	for _, vars := range [][]string{nil, {}, {"s"}, {"s", "o", "s", "unbound", "a"}} {
		for n := 0; n <= len(values); n++ {
			var rows []sparql.Binding
			for i := 0; i < n; i++ {
				b := sparql.Binding{}
				if len(vars) > 0 && i%4 != 3 {
					b["s"] = rdf.NewIRI(values[i])
				}
				if len(vars) > 1 {
					b["o"] = rdf.NewLiteral(values[(i+3)%len(values)])
					if i%2 == 0 {
						b["a"] = rdf.NewLangLiteral(values[(i+5)%len(values)], "en")
					}
				}
				rows = append(rows, b)
			}
			want := struct {
				Vars []string            `json:"vars"`
				Rows []map[string]string `json:"rows"`
			}{Vars: vars}
			for _, b := range rows {
				row := make(map[string]string, len(b))
				for k, t := range b {
					row[k] = t.Value
				}
				want.Rows = append(want.Rows, row)
			}
			wantBody, err := encodeJSON(want)
			if err != nil {
				t.Fatal(err)
			}
			if got := sparqlBody(&sparql.Results{Vars: vars, Rows: rows}); !bytes.Equal(got, wantBody) {
				t.Errorf("vars %q, %d rows:\ngot  %s\nwant %s", vars, n, got, wantBody)
			}
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON checks appendJSONString against
// json.Marshal on every single byte and on random strings of bytes and
// runes, valid UTF-8 or not.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
	}
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "<", ">", "&", `"`, `\`, "\u2028", "\u2029", "é", "🌡", "\xe2\x80", "\xff", "\x00", "\x7f"}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			if rng.Intn(2) == 0 {
				sb.WriteString(pieces[rng.Intn(len(pieces))])
			} else {
				sb.WriteByte(byte(rng.Intn(256)))
			}
		}
		check(sb.String())
	}
}

// TestSQLBodyEncodesLikeEncodeJSON checks that the /api/sql body is byte
// for byte what encodeJSON makes of the SQLResult, on random results whose
// cells and column labels JSON escapes (HTML characters, the JavaScript
// line separators, invalid UTF-8), with nil and empty columns, rows and
// cells.
func TestSQLBodyEncodesLikeEncodeJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pieces := []string{"a", "<b>", "&amp;", `"`, `\`, "\u2028", "\u2029", "é", "\xff\xfe", "\x00", "\n", " "}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	strs := func(n int) []string {
		if n < 0 {
			return nil
		}
		ss := make([]string, n)
		for i := range ss {
			ss[i] = str()
		}
		return ss
	}
	for i := 0; i < 500; i++ {
		rs := &sensormeta.SQLResult{Columns: strs(rng.Intn(4) - 1)}
		switch rows := rng.Intn(6) - 1; {
		case rows == 0:
			rs.Rows = [][]string{}
		case rows > 0:
			for ; rows > 0; rows-- {
				rs.Rows = append(rs.Rows, strs(rng.Intn(4)-1))
			}
		}
		want, err := encodeJSON(rs)
		if err != nil {
			t.Fatal(err)
		}
		if got := sqlBody(rs); !bytes.Equal(got, want) {
			t.Fatalf("%q:\ngot  %s\nwant %s", rs, got, want)
		}
	}
}
