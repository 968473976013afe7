package jtp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exported identifiers in internal/ that only
// tests reach and that stay anyway: each is a seam a guard test reads or
// sets, and its reason names that test. Keys are "pkg.Name" for
// package-level identifiers and "pkg.Type.Method" for methods, pkg being
// the directory under internal/.
var exportAllowlist = map[string]string{
	"campaign.Report.TelemetryCSV": "TestGoldenFig9Telemetry pins its output in fig9.telemetry.csv",
	"channel.Channel.Bad":          "TestSymmetricLinkState and TestMeanBadPeriod read the link state",
	"channel.Channel.ForceState":   "TestSymmetricLinkState and TestLossProbStates hold a link in one state",
	"mac.Scheduler.Slots":          "TestSchedulerSlotRate counts the slots elapsed",
	"routing.View.Hops":            "TestViewSnapshotAccessors reads the full-view oracle behind Cache.Fill",
	"sim.Engine.Drain":             "TestDrain and the other sim tests run the queue dry",
	"sim.source.Int63":             "TestSourceMatchesMathRand draws it through rand.Rand, which reaches it only via the rand.Source interface",
}

// stdInterfaceMethods are method names the standard library calls
// through its own interfaces (fmt.Stringer, error, sort.Interface,
// container/heap, json.Marshaler): a method of that name is reached
// without being named.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestInternalExportsReached is the rule DESIGN.md "Exported surface"
// states: every exported identifier declared in internal/ must be named
// by a non-test file somewhere in the repository (cmd/, examples/, the
// root facade and the bench/ module all count), or be allowlisted with
// the guard test that reads it. It also fails on an allowlist entry that
// no longer names an unreached identifier.
func TestInternalExportsReached(t *testing.T) {
	problems, err := checkExports(os.DirFS("."), exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportLintFixture runs the lint over an in-memory module, one case
// per rule.
func TestExportLintFixture(t *testing.T) {
	fsys := fstest.MapFS{}
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"internal/a/a.go": `package a

// Never is named nowhere.
func Never() int { return Never() }

// TestOnly is named only by a _test.go file.
func TestOnly() {}

// BenchOnly is named only by the bench module.
func BenchOnly() {}

// Seam is named only by a test, and allowlisted.
func Seam() {}

// Used is named by a sibling file of the package.
func Used() {}

type T struct{}

// Called is a method named from cmd/.
func (T) Called() {}

// Stale is allowlisted but cmd/ names it.
func (*T) Stale() {}

// String is reached through fmt.Stringer.
func (T) String() string { return "" }
`,
		"internal/a/b.go":          "package a\n\nvar _ = Used\n",
		"internal/a/a_test.go":     "package a\n\nimport \"testing\"\n\nfunc TestSeam(t *testing.T) { TestOnly(); Seam() }\n",
		"bench/go.mod":             "module example.com/m/bench\n",
		"bench/probe.go":           "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n",
		"cmd/x/main.go":            "package main\n\nimport alias \"example.com/m/internal/a\"\n\nfunc main() { var t alias.T; t.Called(); t.Stale() }\n",
		"internal/a/testdata/z.go": "package z\n\nvar _ = a.Never\n",
	} {
		fsys[name] = &fstest.MapFile{Data: []byte(src)}
	}
	problems, err := checkExports(fsys, map[string]string{
		"a.Seam":    "TestSeam calls it",
		"a.T.Stale": "TestSeam calls it",
		"a.Gone":    "TestSeam calls it",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:4: a.Never is exported but no non-test file names it",
		"internal/a/a.go:7: a.TestOnly is exported but no non-test file names it",
		"allowlist: a.Gone is not an unreached export of internal/; delete the entry",
		"allowlist: a.T.Stale is not an unreached export of internal/; delete the entry",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}

	// An entry must name a test the tree declares.
	problems, err = checkExports(fsys, map[string]string{
		"a.Never": "nothing reads it", "a.TestOnly": "TestMissing reads it",
		"a.Seam": "TestSeam calls it", "a.T.Stale": "TestSeam calls it",
	})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		`allowlist: a.Never: reason "nothing reads it" names no test declared in a _test.go file`,
		`allowlist: a.T.Stale is not an unreached export of internal/; delete the entry`,
		`allowlist: a.TestOnly: reason "TestMissing reads it" names no test declared in a _test.go file`,
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

var testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)\w*`)

// checkExports returns one line per violation of the exported-surface
// rule in the module at the root of fsys, sorted. It resolves names from
// syntax alone: a package-level identifier is reached by a bare name in
// its own package or a pkg.Name selector through an import of it; a
// method by any x.Method selector anywhere, whatever x is. That needs no
// type checking and errs toward "reached": the one way to report a name
// in use is a method only the standard library calls, through its own
// interface, which stdInterfaceMethods covers. A function naming only
// itself does not count.
func checkExports(fsys fs.FS, allow map[string]string) ([]string, error) {
	module, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	type decl struct {
		pos       token.Position
		dir, name string // package directory; identifier or method name
		method    bool
	}
	var (
		fset    = token.NewFileSet()
		decls   = map[string]decl{}    // by allowlist key
		pkgRefs = map[[2]string]bool{} // {package dir, name}
		memRefs = map[string]bool{}    // method names
		tests   = map[string]bool{}    // test functions declared
	)
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if b := d.Name(); p != "." && (b == "testdata" || strings.HasPrefix(b, ".") || strings.HasPrefix(b, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
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
		if strings.HasSuffix(p, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		dir := path.Dir(p)
		imports := map[string]string{} // local name -> package dir in this module
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			name := path.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		internal := strings.HasPrefix(dir, "internal/")
		declare := func(id *ast.Ident, key string, method bool) {
			if internal && id.IsExported() {
				decls[key] = decl{fset.Position(id.Pos()), dir, id.Name, method}
			}
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		skip := map[*ast.Ident]bool{} // declaring names and receiver types
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
				if d.Recv == nil {
					declare(d.Name, pkg+"."+d.Name.Name, false)
					continue
				}
				recv := recvIdent(d.Recv.List[0].Type)
				skip[recv] = true
				declare(d.Name, pkg+"."+recv.Name+"."+d.Name.Name, true)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						skip[s.Name] = true
						declare(s.Name, pkg+"."+s.Name.Name, false)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							skip[n] = true
							declare(n, pkg+"."+n.Name, false)
						}
					}
				}
			}
		}
		for _, d := range f.Decls {
			self, method := "", false // a function's references to itself do not count
			if fn, ok := d.(*ast.FuncDecl); ok {
				self, method = fn.Name.Name, fn.Recv != nil
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true // a selected name is not a bare one
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							pkgRefs[[2]string{rel, n.Sel.Name}] = true
						}
					}
					if !method || n.Sel.Name != self {
						memRefs[n.Sel.Name] = true
					}
				case *ast.Ident:
					if !skip[n] && (method || n.Name != self) {
						pkgRefs[[2]string{dir, n.Name}] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var problems []string
	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unreached := map[string]bool{}
	for _, k := range keys {
		d := decls[k]
		if d.method && (memRefs[d.name] || stdInterfaceMethods[d.name]) || !d.method && pkgRefs[[2]string{d.dir, d.name}] {
			continue
		}
		unreached[k] = true
		if _, ok := allow[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s:%d: %s is exported but no non-test file names it", d.pos.Filename, d.pos.Line, k))
		}
	}
	allowed := make([]string, 0, len(allow))
	for k := range allow {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	for _, k := range allowed {
		if !unreached[k] {
			problems = append(problems, fmt.Sprintf("allowlist: %s is not an unreached export of internal/; delete the entry", k))
			continue
		}
		if name := testNameRE.FindString(allow[k]); name == "" || !tests[name] {
			problems = append(problems, fmt.Sprintf("allowlist: %s: reason %q names no test declared in a _test.go file", k, allow[k]))
		}
	}
	return problems, nil
}

// recvIdent returns the type name of a method receiver: T, *T, T[P] or *T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

// modulePath reads the module line of fsys's go.mod.
func modulePath(fsys fs.FS) (string, error) {
	data, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("go.mod: no module line")
}
