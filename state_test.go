package jtp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"strings"
	"testing"
)

// packageVars are the package-level variables the module may declare
// beside error sentinels and `var _ I = …` assertions, keyed by package
// directory and name, each with the reason it is not run state.
var packageVars = map[string]string{
	"internal/experiments.substrates": "the substrate pool: recycles built networks, never configures a run",
	"cmd/jtpsim.debugVars":            "expvar names are process-global, so their publication is too",
	"internal/sim.lcgPow":             "read-only table source.go's init fills (ROADMAP item 7 deletes it)",
	"internal/sim.rngCooked":          "read-only table source.go's init fills (ROADMAP item 7 deletes it)",
}

// initFile is the one file that may declare func init: it fills the
// read-only tables above.
const initFile = "internal/sim/source.go"

// TestNoPackageState pins that the module keeps no process state: runs,
// campaigns and the protocol set take everything as arguments, so two
// of them in one process cannot configure each other. Every non-test
// file outside bench/ (a module of its own) and examples/ declares no
// package-level variable but those packageVars allows, and no func init
// but initFile's.
func TestNoPackageState(t *testing.T) {
	fsys := os.DirFS(".")
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch b := d.Name(); {
			case p == ".":
			case p == "bench", p == "examples", b == "testdata", strings.HasPrefix(b, "."):
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name == "init" && p != initFile {
					t.Errorf("%s: func init", fset.Position(decl.Pos()))
				}
			case *ast.GenDecl:
				if decl.Tok != token.VAR {
					continue
				}
				for _, spec := range decl.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						key := path.Dir(p) + "." + name.Name
						switch {
						case name.Name == "_" || isErrorSentinel(vs, i):
						case packageVars[key] != "":
							seen[key] = true
						default:
							t.Errorf("%s: package-level var %s", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range packageVars {
		if !seen[key] {
			t.Errorf("allowed package-level var %s is gone; drop it from packageVars", key)
		}
	}
}

// isErrorSentinel reports whether the i-th name of vs is an err-named
// variable initialised by errors.New or fmt.Errorf.
func isErrorSentinel(vs *ast.ValueSpec, i int) bool {
	name := vs.Names[i].Name
	if !strings.HasPrefix(name, "err") && !strings.HasPrefix(name, "Err") || i >= len(vs.Values) {
		return false
	}
	call, ok := vs.Values[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && (pkg.Name == "errors" && sel.Sel.Name == "New" || pkg.Name == "fmt" && sel.Sel.Name == "Errorf")
}
