// Package planstats pins the PR-10 planner invariant: every SELECT row is
// produced by an executed plan node, so the planner's statistics
// (IndexScans, FallbackScans, estimate-error samples) account for all row
// traffic. Before the refactor, SELECT compilation in select.go reached
// for Table.Scan directly in half a dozen places, and each such shortcut
// was a scan the cost model never saw and EXPLAIN could not render.
package planstats

import (
	"go/ast"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// allowedFiles are the relational files that may call Table.Scan: the plan
// executor (the single fetch path of SELECT) and the Table implementation
// itself. The write path (db.go's ReplaceRows) finds its rows through
// indexes only, and there is no serialization of tables to scan for —
// snapshots store pages and tags and restore reprojects the rows — so
// neither db.go nor persist.go is on the list.
var allowedFiles = map[string]bool{
	"plan.go":  true,
	"table.go": true,
}

// Analyzer flags calls to (*Table).Scan outside the files where scanning
// is the job — most importantly select.go, where every access path must be
// a plan node so costing, counters and EXPLAIN stay complete.
var Analyzer = &analysis.Analyzer{
	Name: "planstats",
	Doc: "forbid direct Table.Scan outside plan-node execution (plan.go) and the table itself, " +
		"so every SELECT access path is planned, counted and explainable",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if allowedFiles[base] || strings.HasSuffix(base, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Scan" {
				return true
			}
			recv := pass.TypesInfo.TypeOf(sel.X)
			if recv == nil {
				return true
			}
			if _, name, ok := analysis.NamedType(recv); ok && name == "Table" {
				pass.Reportf(call.Pos(),
					"direct Table.Scan outside plan execution: route the access through a plan node (compileSelect) so it is costed, counted and explainable")
			}
			return true
		})
	}
	return nil
}
