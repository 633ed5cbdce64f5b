package sensormeta

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
)

// reachAllowlist names the functions and methods TestProductionCodeIsReached
// accepts although no non-test file references them, each with the reason
// it stays. Keys are "<import path>.<func>" or "<import path>.<type>.<method>".
var reachAllowlist = map[string]string{
	"repro.System.RefreshFull":                            "the from-scratch refresh the incremental Refresh is checked byte-identical against",
	"repro/internal/analysis/analysistest.Fprint":         "golden-test harness every analyzer test shares",
	"repro/internal/analysis/analysistest.Run":            "golden-test harness every analyzer test shares",
	"repro/internal/analysis/analysistest.TestData":       "golden-test harness every analyzer test shares",
	"repro/internal/graph.Undirected.ConnectedComponents": "reference for the tag pipeline's incremental component bookkeeping",
	"repro/internal/linalg.NewCSR":                        "coordinate-list reference the counting-sort PageRank matrix builder is checked against; the CSR tests' fixture",
	"repro/internal/rdf.Store.Add":                        "builds the rdf and sparql test stores one triple at a time; the repository writes a page's triples with ReplaceSubject",
	"repro/internal/recommend.Recommender.RecommendScan":  "full-scan reference the posting-list Recommend is checked against",
	"repro/internal/replica/faultnet.New":                 "fault-injecting transport of the replication tests",
	"repro/internal/search.Index.Search":                  "sorted full-scan reference for the compiled matchers and the executor",
	"repro/internal/smr.ACL.DenyPage":                     "setter of the paper's privilege model; the user goldens pin it",
	"repro/internal/smr.ACL.Grant":                        "setter of the paper's privilege model; the user goldens pin it",
	"repro/internal/smr.ACL.SetAnonymousAccess":           "setter of the paper's privilege model; the server tests lock it",
	"repro/internal/wal.Log.Append":                       "single-record append the WAL and write-path tests share",
	"repro/internal/workload.BuildMixed":                  "builds the mixed read/write stress workload of mixed_test.go",
	"repro/internal/workload.DefaultMix":                  "the default operation mix of mixed_test.go",
}

// TestProductionCodeIsReached fails on any function or method declared in a
// non-test file of this module (or of perfbench) that no non-test file
// references, so code only tests call cannot accumulate. A function's
// references from inside its own body do not count. Exempt are main and
// init, String and Error, methods through which their type implements an
// interface the module declares, imports or mentions, and reachAllowlist.
func TestProductionCodeIsReached(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*driver.Package
	for _, dir := range []string{".", "perfbench"} {
		loaded, err := driver.Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}

	type decl struct {
		pos string
		fn  *types.Func
	}
	decls := make(map[string]decl)
	referenced := make(map[string]bool)
	ifaces := make(map[string]*types.Interface)
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[types.TypeString(it, nil)] = it
		}
	}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	seenImport := make(map[string]bool)
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("type errors in %s: %v", pkg.ImportPath, pkg.TypeErrors)
		}
		addScope(pkg.Types.Scope())
		for _, imp := range pkg.Types.Imports() {
			if !seenImport[imp.Path()] {
				seenImport[imp.Path()] = true
				addScope(imp.Scope())
			}
		}
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					self = funcKey(fn)
					pos := pkg.Fset.Position(fd.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					decls[self] = decl{pos: rel + ":" + strconv.Itoa(pos.Line), fn: fn}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							if k := funcKey(fn); k != self {
								referenced[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	var unreached []string
	for key, d := range decls {
		name, method := d.fn.Name(), d.fn.Type().(*types.Signature).Recv() != nil
		switch {
		case referenced[key]:
		case !method && (name == "main" || name == "init"):
		case method && (name == "String" || name == "Error"):
		case method && implementsVia(d.fn, ifaces):
		case reachAllowlist[key] != "":
		default:
			unreached = append(unreached, d.pos+": "+key)
		}
	}
	for key := range reachAllowlist {
		if _, ok := decls[key]; !ok || referenced[key] {
			unreached = append(unreached, "reachAllowlist entry "+key+" is stale: it names no unreferenced function")
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d functions or methods are referenced by no non-test file; delete them (with the tests that only check them) or give them a reason in reachAllowlist:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}

// funcKey names fn the same way whether it comes from source or from
// another package's export data.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
		return path + "." + types.TypeString(typ, nil) + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// implementsVia reports whether m's receiver type (or a pointer to it)
// implements some interface in ifaces that has a method named like m.
// Signatures are compared as strings, so types loaded from source and from
// export data match.
func implementsVia(m *types.Func, ifaces map[string]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	sigs := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		obj := mset.At(i).Obj()
		sigs[obj.Name()] = sigString(obj.Type().(*types.Signature))
	}
	for _, it := range ifaces {
		named, all := false, true
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			if sigs[im.Name()] != sigString(im.Type().(*types.Signature)) {
				all = false
				break
			}
			named = named || im.Name() == m.Name()
		}
		if all && named {
			return true
		}
	}
	return false
}

// sigString renders a signature's parameter and result types without their
// names, the part of a method that decides whether it satisfies an
// interface method.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
