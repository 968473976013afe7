package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulationPackagesSingleGoroutine pins the property the engine,
// the routing cache and every free-list rely on instead of locks: nothing
// that runs inside one simulation starts a goroutine, communicates over a
// channel or imports sync. Parallelism lives above a run (campaign
// workers, shards, the coordinator); internal/obs, whose handles are
// atomic, is deliberately not in the list.
func TestSimulationPackagesSingleGoroutine(t *testing.T) {
	pkgs := []string{
		"sim", "mac", "channel", "node", "routing", "core", "ijtp", "flipflop",
		"cache", "atp", "tcpsack", "mobility", "topology", "energy", "packet", "pool",
	}
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
		}
	}
}
