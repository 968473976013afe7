package jtp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// censusKinds are the reasons a function in internal/ or cmd/ may stay
// although no command of scripts/census.sh runs it. An entry of
// testdata/unreached.txt gives one of them, a colon, and what needs the
// function; the kinds ending in "+ test" must name the test.
var censusKinds = []string{
	"diagnostic",
	"failure path + test",
	"test seam/oracle + test",
	"interface method",
	"facade reach",
	"bench probe",
	"pending ROADMAP item",
}

// TestCoverageCensus compares the census scripts/census.sh takes (the
// `go tool covdata func` output of the covered binaries over the
// commands CI runs) with testdata/unreached.txt. The script runs it;
// without the census file it has nothing to compare.
func TestCoverageCensus(t *testing.T) {
	path := os.Getenv("JTP_CENSUS_FUNC")
	if path == "" {
		t.Skip("JTP_CENSUS_FUNC is unset; scripts/census.sh takes the census and runs this test over it")
	}
	funcs, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	list, err := os.ReadFile("testdata/unreached.txt")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := declaredTests(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkCensus(string(funcs), string(list), tests, os.DirFS(".")) {
		t.Error(p)
	}
}

// TestCensusFixture runs the comparator over synthetic census text, one
// case per rule.
func TestCensusFixture(t *testing.T) {
	funcs := func(line int) string {
		return fmt.Sprintf(`github.com/javelen/jtp/internal/a/a.go:%d:	Used			100.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	*T.Unlisted		0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	T.String		0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Listed			0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	NowCovered		50.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Bare			0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Unkind			0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Untested		0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Conn			0.0%%
github.com/javelen/jtp/internal/a/a.go:%d:	Conn			0.0%%
github.com/javelen/jtp/internal/a/b.go:4:	Noop			0.0%%
github.com/javelen/jtp/internal/a/b.go:6:	T.Hook			0.0%%
github.com/javelen/jtp/internal/a/b.go:10:	Work			0.0%%
github.com/javelen/jtp/cmd/x/main.go:%d:	usage			0.0%%
github.com/javelen/jtp/jtp.go:%d:		Facade			0.0%%
total:					(statements)		61.0%%
`, line, line+5, line+9, line+12, line+20, line+30, line+31, line+32, line+40, line+41, line, line)
	}
	list := `# comment lines and blank lines are skipped

internal/a/a.go Listed  failure path + test: TestListed drives it
internal/a/a.go NowCovered  diagnostic: printed on a failure
internal/a/a.go Gone  interface method: mac.Segment
internal/a/a.go Bare
internal/a/a.go Unkind  because: it is handy
internal/a/a.go Untested  test seam/oracle + test: TestMissing reads it
cmd/x/main.go usage  diagnostic: prints the usage
internal/a/a.go Listed  diagnostic: twice
internal/a/a.go Conn  interface method: two generic types' Conn methods
internal/a/b.go Noop  interface method: mac.Plugin
`
	// b.go's functions with no statements are exempt wherever they sit;
	// Work, which has one, is not.
	src := fstest.MapFS{"internal/a/b.go": {Data: []byte(`package a

// Noop does nothing.
func Noop() {}

func (T) Hook() {
	// A comment is not a statement.
}

func Work() { Noop() }
`)}}
	tests := map[string]bool{"TestListed": true}
	want := []string{
		"internal/a/a.go:52: Conn has the census key of line 51 (a generic type's method is printed without its receiver); rename one, or one entry covers both",
		"internal/a/a.go:16: T.Unlisted is at 0% and testdata/unreached.txt does not list it",
		"internal/a/b.go:10: Work is at 0% and testdata/unreached.txt does not list it",
		`unreached.txt:4: internal/a/a.go NowCovered is covered now; delete the entry`,
		`unreached.txt:5: internal/a/a.go Gone names no function of the census; delete the entry`,
		`unreached.txt:6: internal/a/a.go Bare: no reason; want one of ["diagnostic" "failure path + test" "test seam/oracle + test" "interface method" "facade reach" "bench probe" "pending ROADMAP item"], a colon and what needs it`,
		`unreached.txt:7: internal/a/a.go Unkind: no reason; want one of ["diagnostic" "failure path + test" "test seam/oracle + test" "interface method" "facade reach" "bench probe" "pending ROADMAP item"], a colon and what needs it`,
		`unreached.txt:8: internal/a/a.go Untested: reason "test seam/oracle + test: TestMissing reads it" names no test declared in a _test.go file`,
		`unreached.txt:10: internal/a/a.go Listed is listed twice`,
		`unreached.txt:12: internal/a/b.go Noop names no function of the census; delete the entry`,
	}
	got := checkCensus(funcs(11), list, tests, src)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Keys carry no line number: shifting every function down the file
	// moves only the positions of the key clash and the unlisted function.
	want[0] = "internal/a/a.go:92: Conn has the census key of line 91 (a generic type's method is printed without its receiver); rename one, or one entry covers both"
	want[1] = "internal/a/a.go:56: T.Unlisted is at 0% and testdata/unreached.txt does not list it"
	got = checkCensus(funcs(51), list, tests, src)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("shifted problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	fsys := fstest.MapFS{
		"a/a_test.go":     {Data: []byte("package a\n\nfunc TestA(t *testing.T) {}\nfunc FuzzB(f *testing.F) {}\nfunc helper() {}\n")},
		"a/a.go":          {Data: []byte("package a\n\nfunc TestNotATest() {}\n")},
		"a/testdata/x.go": {Data: []byte("package x\n")},
	}
	declared, err := declaredTests(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) != 2 || !declared["TestA"] || !declared["FuzzB"] {
		t.Errorf("declared tests %v, want TestA and FuzzB", declared)
	}
}

// checkCensus returns one line per disagreement between the census
// funcs (`go tool covdata func` output) and the unreached list, in the
// order: key clashes, then unlisted functions (both by census line),
// then entries (by line). A function's key is its file, relative
// to the module, and its name as the census prints it, receiver
// included and pointer star dropped; the line number is not part of it.
// The census prints a generic type's method without its receiver, so
// two functions of one file may share a key, and then one entry would
// cover both: that is a disagreement too. Only internal/ and cmd/ are
// censused, and two kinds of function are exempt. A String method: fmt
// reaches it, and a diagnostic string no command prints is still a
// diagnostic. A function with no statements, found by parsing its file
// in src: the census has no statement to count it by, so it reads 0%
// whether or not it runs.
func checkCensus(funcs, list string, tests map[string]bool, src fs.FS) []string {
	empty := map[string]map[int]bool{} // file → lines of its empty functions
	isEmpty := func(file, ln string) bool {
		lines, ok := empty[file]
		if !ok {
			lines = emptyFuncs(src, file)
			empty[file] = lines
		}
		n, _ := strconv.Atoi(ln)
		return lines[n]
	}
	zero, covered := map[string]bool{}, map[string]bool{}
	type fn struct{ key, pos, name string }
	var unreached []fn
	var unlisted []string
	seen := map[string]string{} // key → the census line it was first on
	for _, line := range strings.Split(funcs, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasSuffix(f[2], "%") {
			continue
		}
		loc := strings.TrimPrefix(f[0], "github.com/javelen/jtp/")
		file, ln, _ := strings.Cut(strings.TrimSuffix(loc, ":"), ":")
		if !strings.HasPrefix(file, "internal/") && !strings.HasPrefix(file, "cmd/") {
			continue
		}
		name := strings.TrimPrefix(f[1], "*")
		key := file + " " + name
		if first, dup := seen[key]; dup {
			unlisted = append(unlisted, fmt.Sprintf("%s:%s: %s has the census key of line %s (a generic type's method is printed without its receiver); rename one, or one entry covers both", file, ln, name, first))
		} else {
			seen[key] = ln
		}
		if f[2] != "0.0%" {
			covered[key] = true
			continue
		}
		if name == "String" || strings.HasSuffix(name, ".String") || isEmpty(file, ln) {
			continue
		}
		zero[key] = true
		unreached = append(unreached, fn{key, file + ":" + ln, name})
	}

	listed := map[string]bool{}
	var entries []string
	for i, line := range strings.Split(list, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			entries = append(entries, fmt.Sprintf("unreached.txt:%d: %q is not \"file Func reason\"", i+1, line))
			continue
		}
		key := f[0] + " " + f[1]
		reason := strings.TrimSpace(strings.Join(f[2:], " "))
		at := fmt.Sprintf("unreached.txt:%d: %s", i+1, key)
		switch {
		case listed[key]:
			entries = append(entries, at+" is listed twice")
			continue
		case covered[key] && !zero[key]:
			entries = append(entries, at+" is covered now; delete the entry")
		case !zero[key]:
			entries = append(entries, at+" names no function of the census; delete the entry")
		}
		listed[key] = true
		if p := checkReason(reason, tests); p != "" {
			entries = append(entries, at+": "+p)
		}
	}

	for _, u := range unreached {
		if !listed[u.key] {
			unlisted = append(unlisted, fmt.Sprintf("%s: %s is at 0%% and testdata/unreached.txt does not list it", u.pos, u.name))
		}
	}
	return append(unlisted, entries...)
}

// emptyFuncs returns the lines, as the census prints them (the line of
// the func keyword), of the functions in file that have a body with no
// statements. A file that cannot be read or parsed exempts nothing.
func emptyFuncs(src fs.FS, file string) map[int]bool {
	text, err := fs.ReadFile(src, file)
	if err != nil {
		return nil
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, text, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	lines := map[int]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && len(fd.Body.List) == 0 {
			lines[fset.Position(fd.Pos()).Line] = true
		}
	}
	return lines
}

// TestEmptyFuncs checks which functions the census exempts as empty: a
// body with no statements, even with a comment in it, is empty; a
// function with a statement, or declared without a body, is not; and a
// file that cannot be read or parsed exempts nothing.
func TestEmptyFuncs(t *testing.T) {
	src := fstest.MapFS{
		"a.go": {Data: []byte(`package a

func Noop() {}

func (T) Hook() {
	// A comment is not a statement.
}

func asm()

func Work() {
	f := func() {}
	f()
}
`)},
		"bad.go": {Data: []byte("package a\n\nfunc Broken() {\n")},
	}
	got := emptyFuncs(src, "a.go")
	if len(got) != 2 || !got[3] || !got[5] {
		t.Errorf("a.go: empty lines %v, want 3 and 5", got)
	}
	if got := emptyFuncs(src, "bad.go"); len(got) != 0 {
		t.Errorf("bad.go: empty lines %v, want none", got)
	}
	if got := emptyFuncs(src, "missing.go"); len(got) != 0 {
		t.Errorf("missing.go: empty lines %v, want none", got)
	}
}

// checkReason says what is wrong with an entry's reason, or "" if it is
// of a named kind and, where the kind asks for one, names a declared test.
func checkReason(reason string, tests map[string]bool) string {
	for _, k := range censusKinds {
		detail, ok := strings.CutPrefix(reason, k+": ")
		if !ok || strings.TrimSpace(detail) == "" {
			continue
		}
		if strings.HasSuffix(k, "+ test") {
			if name := testNameRE.FindString(detail); name == "" || !tests[name] {
				return fmt.Sprintf("reason %q names no test declared in a _test.go file", reason)
			}
		}
		return ""
	}
	return fmt.Sprintf("no reason; want one of %q, a colon and what needs it", censusKinds)
}

var testDeclRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// declaredTests is the set of test, fuzz and benchmark functions the
// _test.go files of fsys declare, testdata excluded.
func declaredTests(fsys fs.FS) (map[string]bool, error) {
	tests := map[string]bool{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if b := d.Name(); p != "." && (b == "testdata" || strings.HasPrefix(b, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		for _, m := range testDeclRE.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
		return nil
	})
	return tests, err
}
