// Package errenvelope keeps HTTP error emission in internal/server on the
// one structured envelope — {"error":{code,message,field}} — that the v1
// API, the replication endpoints and (since this suite landed) the legacy
// routes all share. http.Error and http.NotFound emit text/plain with no
// code clients can branch on, and ad-hoc map[string]...{"error": ...}
// literals fork the envelope shape; both have caused client-visible drift
// between the legacy and v1 surfaces before the envelope was unified.
package errenvelope

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags (1) any call to net/http.Error or net/http.NotFound and
// (2) any map composite literal with an "error" key (the ad-hoc
// envelope). The canonical construction site builds the envelope from a
// named struct, which this analyzer deliberately does not match.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: "HTTP handlers must emit errors through the structured envelope helper, " +
		"never http.Error, http.NotFound or ad-hoc error maps, so every API surface speaks one error shape",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, name := range []string{"Error", "NotFound"} {
					if analysis.PkgFunc(pass.TypesInfo, n, "net/http", name) {
						pass.Reportf(n.Pos(),
							"http.%s emits unstructured text/plain; use the structured error envelope helper", name)
					}
				}
			case *ast.CompositeLit:
				checkErrorMap(pass, n)
			}
			return true
		})
	}
	return nil
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
