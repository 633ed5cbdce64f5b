// Package errenvelope keeps HTTP error emission in internal/server on the
// one structured envelope — {"error":{code,message,field}} — that the v1
// API, the replication endpoints and (since this suite landed) the legacy
// routes all share. http.Error and http.NotFound emit text/plain with no
// code clients can branch on, and ad-hoc map[string]...{"error": ...}
// literals fork the envelope shape; both have caused client-visible drift
// between the legacy and v1 surfaces before the envelope was unified.
// Request parameters are parsed in one file, params.go, for the same
// reason: hand-written strconv blocks in handlers once answered a bad
// value in three ways (a silent default, a free-text 400, a 400 naming
// the field).
package errenvelope

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// paramsFile is the one file that may parse request parameters: serve
// hands every handler its declared parameters parsed and checked.
const paramsFile = "params.go"

// Analyzer flags (1) any call to net/http.Error or net/http.NotFound,
// (2) any map composite literal with an "error" key (the ad-hoc
// envelope) and (3) outside paramsFile, any call of strconv.Atoi,
// strconv.Parse*, time.ParseDuration or (*url.URL).Query. The canonical
// construction site builds the envelope from a named struct, which this
// analyzer deliberately does not match.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: "HTTP handlers must emit errors through the structured envelope helper, " +
		"never http.Error, http.NotFound or ad-hoc error maps, and read request parameters " +
		"only through the route's declared params, so every API surface speaks one error shape",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		parser := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == paramsFile
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, name := range []string{"Error", "NotFound"} {
					if analysis.PkgFunc(pass.TypesInfo, n, "net/http", name) {
						pass.Reportf(n.Pos(),
							"http.%s emits unstructured text/plain; use the structured error envelope helper", name)
					}
				}
				if name := parseCall(pass.TypesInfo, n); name != "" && !parser {
					pass.Reportf(n.Pos(),
						"%s parses a request value outside %s; declare the parameter on its route and read it from params", name, paramsFile)
				}
			case *ast.CompositeLit:
				checkErrorMap(pass, n)
			}
			return true
		})
	}
	return nil
}

// parseCall returns the name of the parsing function call invokes, or ""
// when it is none of them.
func parseCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	switch name := fn.FullName(); {
	case name == "strconv.Atoi", strings.HasPrefix(name, "strconv.Parse"),
		name == "time.ParseDuration", name == "(*net/url.URL).Query":
		return name
	}
	return ""
}

// checkErrorMap flags map literals carrying an "error" key.
func checkErrorMap(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[kv.Key]
		if !ok || tv.Value == nil {
			continue
		}
		if tv.Value.ExactString() == `"error"` {
			pass.Reportf(kv.Pos(),
				"ad-hoc error envelope map; build the response through the structured envelope helper")
		}
	}
}
