// Package lint implements the gslint analyzer suite: compile-time
// enforcement of the two invariants the GS1280 reproduction rests on —
// byte-identical output at any -j (determinism) and zero-allocation hot
// paths. The repo cannot vendor golang.org/x/tools, so the package carries
// a small stdlib-only loader and driver that mirror the go/analysis shape:
// an Analyzer holds a Run function over a Pass, a Pass exposes the
// package's syntax and type information, and cmd/gslint is the
// multichecker. timerarg and concur are package-at-a-time passes;
// noalloc, poolsafe and detflow run once over the whole module, following
// calls across package boundaries (Program.DeclOf, Program.CallGraph).
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Package is one type-checked module package under analysis.
type Package struct {
	Path  string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a whole-module load: every non-test package of the module,
// type-checked from source against export data for the standard library,
// plus a module-wide index from function objects to their declarations so
// analyzers can follow calls across package boundaries.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // module packages, dependency order
	// decls maps each module-level function/method object to its
	// declaration and the package holding it.
	decls map[*types.Func]*FuncDecl
	// files indexes every loaded file by filename, so suppression
	// directives can be resolved wherever a diagnostic lands (noalloc
	// reports into callees' packages).
	files map[string]*ast.File
	// suppCache caches parsed //lint: directives per filename.
	suppCache map[string][]suppression
	// cg caches the whole-program call graph (built on first use).
	cg *CallGraph
}

// FuncDecl pairs a function declaration with its enclosing package.
type FuncDecl struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// DeclOf resolves a function object to its declaration, if the function is
// declared (with a body) in one of the loaded module packages. Standard
// library functions and bodyless (assembly) declarations resolve to nil.
// Instantiated generic functions resolve through their origin.
func (pr *Program) DeclOf(fn *types.Func) *FuncDecl {
	if fn == nil {
		return nil
	}
	return pr.decls[fn.Origin()]
}

// Load runs `go list -export -json -deps` on the patterns (from dir, "" =
// cwd) and type-checks every module package from source, in dependency
// order. Standard-library dependencies are imported from the build cache's
// export data, so loading is offline and fast; module dependencies are
// served from their own source-checked packages, which keeps types.Func
// identity consistent across the whole program — the property DeclOf
// relies on.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v", strings.Join(patterns, " "), err)
	}

	var listed []*listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	pr := NewProgram()
	ld := &loader{
		prog:   pr,
		meta:   make(map[string]*listedPackage, len(listed)),
		byPath: make(map[string]*types.Package, len(listed)),
	}
	ld.exportImp = importer.ForCompiler(pr.Fset, "gc", ld.lookupExport)
	for _, lp := range listed {
		ld.meta[lp.ImportPath] = lp
	}
	// go list -deps emits dependencies before dependents, so a single
	// in-order sweep sees every import already checked.
	for _, lp := range listed {
		if lp.Module == nil || lp.Standard {
			continue // stdlib: imported lazily from export data
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if err := ld.checkFromSource(lp); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// loader threads the state of one Load call: listed-package metadata, the
// packages checked so far, and the export-data importer for the stdlib.
type loader struct {
	prog      *Program
	meta      map[string]*listedPackage
	byPath    map[string]*types.Package
	exportImp types.Importer
}

// lookupExport feeds the gc importer the export-data file `go list
// -export` reported for path.
func (ld *loader) lookupExport(path string) (io.ReadCloser, error) {
	lp := ld.meta[path]
	if lp == nil || lp.Export == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(lp.Export)
}

// Import implements types.Importer for source-checked packages: module
// packages come from the source sweep, everything else from export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.byPath[path]; ok {
		return p, nil
	}
	p, err := ld.exportImp.Import(path)
	if err != nil {
		return nil, err
	}
	ld.byPath[path] = p
	return p, nil
}

// checkFromSource parses and type-checks one module package and indexes
// its function declarations into the program.
func (ld *loader) checkFromSource(lp *listedPackage) error {
	files, err := ParseDirFiles(ld.prog.Fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return err
	}
	pkg, info, err := CheckFiles(lp.ImportPath, ld.prog.Fset, files, ld)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	ld.byPath[lp.ImportPath] = pkg
	ld.prog.AddPackage(&Package{Path: lp.ImportPath, Name: lp.Name, Files: files, Types: pkg, Info: info})
	return nil
}

// NewProgram returns an empty program; packages are attached with
// AddPackage. Load uses it internally, the fixture harness directly.
func NewProgram() *Program {
	return &Program{
		Fset:      token.NewFileSet(),
		decls:     make(map[*types.Func]*FuncDecl),
		files:     make(map[string]*ast.File),
		suppCache: make(map[string][]suppression),
	}
}

// ParseDirFiles parses the named files of dir with comments retained.
func ParseDirFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFiles type-checks one package's files, returning the package and a
// fully populated types.Info. The fixture test harness reuses it to check
// testdata packages that `go list` cannot see.
func CheckFiles(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// AddPackage attaches a checked package: records it, indexes its function
// declarations for DeclOf, and registers its files for suppression lookup.
func (pr *Program) AddPackage(p *Package) {
	pr.Pkgs = append(pr.Pkgs, p)
	for _, f := range p.Files {
		pr.files[pr.Fset.Position(f.Pos()).Filename] = f
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				pr.decls[fn] = &FuncDecl{Decl: fd, Pkg: p}
			}
		}
	}
}

// suppressionsFor returns the parsed //lint: directives of the named file.
func (pr *Program) suppressionsFor(filename string) []suppression {
	if s, ok := pr.suppCache[filename]; ok {
		return s
	}
	var s []suppression
	if f := pr.files[filename]; f != nil {
		s = collectSuppressions(pr.Fset, f)
	}
	pr.suppCache[filename] = s
	return s
}
