package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noallocSite is one //gs:noalloc annotation found in the module.
type noallocSite struct {
	pkg  string
	fn   string
	dir  *NoAllocDirective
	pos  string
	file string
}

// TestNoAllocAnnotationsHaveRuntimeGuards is the meta-test closing the
// loop between the static and runtime halves of the zero-alloc contract:
// every //gs:noalloc guard=TestName annotation must name a test function
// that actually exists, in a test file that actually measures allocations
// (testing.AllocsPerRun or a runtime.ReadMemStats mallocs delta), and
// that CI's zero-alloc step runs by name — and every unguarded annotation
// must say why no runtime guard applies. An annotation whose guard test
// was renamed, deleted or left out of CI fails here instead of silently
// degrading into documentation.
func TestNoAllocAnnotationsHaveRuntimeGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	var sites []noallocSite
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				d := ParseNoAllocDirective(fd.Doc)
				if d == nil {
					continue
				}
				pos := prog.Fset.Position(fd.Pos())
				sites = append(sites, noallocSite{
					pkg: pkg.Path, fn: fd.Name.Name, dir: d,
					pos: pos.String(), file: pos.Filename,
				})
			}
		}
	}
	if len(sites) == 0 {
		t.Fatal("no //gs:noalloc annotations found in the module; the zero-alloc contract has gone missing")
	}

	guards := guardTestIndex(t)
	workflow, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("reading the CI workflow: %v", err)
	}

	for _, s := range sites {
		switch {
		case s.dir.Malformed:
			t.Errorf("%s: malformed %s on %s", s.pos, s.dir.Annotation, s.fn)
		case s.dir.Unguarded != "":
			// The parser already rejects an empty reason as malformed;
			// nothing further to check.
		case s.dir.Guard == "":
			t.Errorf("%s: %s on %s names neither a guard nor an unguarded reason", s.pos, s.dir.Annotation, s.fn)
		default:
			file, ok := guards[s.dir.Guard]
			if !ok {
				t.Errorf("%s: %s on %s names guard %s, but no such test function exists",
					s.pos, s.dir.Annotation, s.fn, s.dir.Guard)
				continue
			}
			if !measuresAllocs(t, file) {
				t.Errorf("%s: guard %s (in %s) never measures allocations: expected testing.AllocsPerRun or a runtime.ReadMemStats mallocs delta",
					s.pos, s.dir.Guard, file)
			}
			if !runsInCI(string(workflow), file, s.dir.Guard) {
				t.Errorf("%s: guard %s of %s never runs in .github/workflows/ci.yml: add it to the zero-alloc guards step",
					s.pos, s.dir.Guard, s.fn)
			}
		}
	}
}

// guardTestIndex maps every Test/Benchmark function name in the module's
// _test.go files to the file declaring it. Test files are outside the
// package loader's view (go list without -test), so this walks and
// parses them directly.
func guardTestIndex(t *testing.T) map[string]string {
	t.Helper()
	guards := make(map[string]string)
	fset := token.NewFileSet()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			name := fd.Name.Name
			if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") {
				guards[name] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking test files: %v", err)
	}
	return guards
}

// runsInCI reports whether one line of the CI workflow lists the package
// of the guard's test file and names the guard among its -run
// alternatives, as `go test ./internal/sim -run 'TestA|TestB'` does.
func runsInCI(workflow, file, guard string) bool {
	// file is one guardTestIndex found under ../.., so Rel cannot fail.
	dir, _ := filepath.Rel(filepath.Join("..", ".."), filepath.Dir(file))
	pkg := "./" + filepath.ToSlash(dir)
	for _, line := range strings.Split(workflow, "\n") {
		f := strings.Fields(line)
		listed, named := false, false
		for i, w := range f {
			listed = listed || w == pkg
			if w == "-run" && i+1 < len(f) {
				for _, alt := range strings.Split(strings.Trim(f[i+1], `'"^$`), "|") {
					named = named || alt == guard
				}
			}
		}
		if listed && named {
			return true
		}
	}
	return false
}

// measuresAllocs reports whether a test file contains one of the two
// runtime allocation-measurement mechanisms the repo uses.
func measuresAllocs(t *testing.T, path string) bool {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	text := string(src)
	return strings.Contains(text, "AllocsPerRun") || strings.Contains(text, "ReadMemStats")
}
