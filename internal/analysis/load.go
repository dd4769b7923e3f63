package analysis

import (
	"bytes"
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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Package is the unit an analyzer runs on: parsed syntax plus full
// type information for one Go package.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Fset maps the positions of Files.
	Fset *token.FileSet
	// Files are the non-test source files, parsed with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo holds the checker's maps for Files.
	TypesInfo *types.Info
}

// newInfo allocates every Info map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns ("./...", "repro/internal/cache", …) with the
// go toolchain and returns the matched packages parsed and
// type-checked. Module dependencies and the standard library are
// imported from compiler export data (`go list -export`) rather than
// re-checked from source, so loading stays proportional to the target
// packages — the same shape as x/tools' go/packages NeedExportFile
// mode, built on the stdlib gc importer.
//
// dir is the working directory for go list (the module root or any
// directory inside it). Test files are excluded, like go vet's
// non-test pass.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,ImportMap,Export,DepOnly,Error",
		"--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}

	exports := map[string]string{}
	importMap := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports, importMap)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: battlint cannot analyze cgo packages", t.ImportPath)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   t.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// exportImporter builds a gc-export-data importer over the path ->
// export-file map that `go list -export` produced. importMap rewrites
// vendored import paths (empty in this repository, carried for
// correctness).
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// LoadFixtureDir loads one analyzer-test fixture package from an
// analysistest-style tree: srcRoot/<pkgpath>/*.go, where a fixture may
// import a sibling fixture package (resolved under srcRoot) or the
// standard library (type-checked from GOROOT source via the stdlib
// source importer, so tests never shell out to the go tool).
func LoadFixtureDir(srcRoot, pkgpath string) (*Package, error) {
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		srcRoot: srcRoot,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		loaded:  map[string]*Package{},
	}
	return ld.load(pkgpath)
}

type fixtureLoader struct {
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	loaded  map[string]*Package
	loading []string // cycle detection
}

func (l *fixtureLoader) load(pkgpath string) (*Package, error) {
	if p, ok := l.loaded[pkgpath]; ok {
		return p, nil
	}
	for _, in := range l.loading {
		if in == pkgpath {
			return nil, fmt.Errorf("fixture import cycle through %q", pkgpath)
		}
	}
	l.loading = append(l.loading, pkgpath)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %w", pkgpath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q: no .go files in %s", pkgpath, dir)
	}
	info := newInfo()
	conf := types.Config{Importer: importerFunc(l.importPkg), Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(pkgpath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", pkgpath, err)
	}
	p := &Package{PkgPath: pkgpath, Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info}
	l.loaded[pkgpath] = p
	return p, nil
}

// importPkg resolves a fixture import: sibling fixture packages first,
// then the standard library.
func (l *fixtureLoader) importPkg(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return stdImport(l.std, path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImport serializes stdlib source imports: the source importer keeps
// per-instance state, and fixture loads can share one across parallel
// subtests.
func stdImport(imp types.Importer, path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return imp.Import(path)
}

var stdMu sync.Mutex
