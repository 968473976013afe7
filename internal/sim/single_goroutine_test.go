package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// simulationPackages are the packages under internal/ whose code runs
// inside one simulation.
var simulationPackages = []string{
	"sim", "mac", "channel", "node", "routing", "core", "ijtp", "flipflop",
	"cache", "atp", "tcpsack", "mobility", "topology", "energy", "packet", "pool",
}

// forEachSource parses every non-test Go file of the named internal/
// packages and hands each to fn.
func forEachSource(t *testing.T, pkgs []string, fn func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (err %v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			fn(fset, f)
		}
	}
}

// TestSimulationPackagesSingleGoroutine pins the property the engine,
// the routing cache and every free-list rely on instead of locks: nothing
// that runs inside one simulation starts a goroutine, communicates over a
// channel or imports sync. Parallelism lives above a run (campaign
// workers, shards, the coordinator).
func TestSimulationPackagesSingleGoroutine(t *testing.T) {
	forEachSource(t, simulationPackages, func(fset *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || strings.HasPrefix(p, "sync/") {
				t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: chan type", fset.Position(n.Pos()))
			}
			return true
		})
	})
}

// TestSimulationPackagesDeterministicSources pins where a run's inputs
// come from: the packages that run inside a simulation, plus transport
// and workload, read no wall clock (no time import) and draw no number
// from math/rand's process-global source. The only package-level
// math/rand calls allowed are rand.New and rand.NewSource, which build
// a seeded stream.
func TestSimulationPackagesDeterministicSources(t *testing.T) {
	pkgs := append(append([]string(nil), simulationPackages...), "transport", "workload")
	forEachSource(t, pkgs, func(fset *token.FileSet, f *ast.File) {
		randName := ""
		for _, imp := range f.Imports {
			switch p := strings.Trim(imp.Path.Value, `"`); p {
			case "time":
				t.Errorf("%s: imports time", fset.Position(imp.Pos()))
			case "math/rand", "math/rand/v2":
				randName = "rand"
				if imp.Name != nil {
					randName = imp.Name.Name
				}
			}
		}
		if randName == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == randName &&
				sel.Sel.Name != "New" && sel.Sel.Name != "NewSource" {
				t.Errorf("%s: calls the global %s.%s", fset.Position(call.Pos()), randName, sel.Sel.Name)
			}
			return true
		})
	})
}
