package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File // non-test files only
	Types     *types.Package
	TypesInfo *types.Info
	TypeErrs  []error // type-check problems (fixtures and trees must be clean)

	graphOnce sync.Once
	graph     *Graph
	allowOnce sync.Once
	allowMap  map[string]map[int]map[string]bool
}

// allow returns the memoized //lint:allow suppression map.
func (p *Package) allow() map[string]map[int]map[string]bool {
	p.allowOnce.Do(func() { p.allowMap = allowedAt(p.Fset, p.Syntax) })
	return p.allowMap
}

// The process shares one FileSet and one stdlib source importer: the
// importer type-checks stdlib dependencies from $GOROOT/src (the build
// environment has no compiled export data and no module proxy), which
// costs a second or two once and nothing after, but only if every load
// in the process reuses the same instance.
var (
	sharedMu   sync.Mutex
	sharedFset = token.NewFileSet()
	sharedStd  types.Importer
)

func stdImporter() types.Importer {
	if sharedStd == nil {
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	}
	return sharedStd
}

// loader type-checks a closed universe of local packages (a module tree
// or an analysistest src root), delegating anything it cannot resolve
// locally to the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	resolve func(path string) (dir string, ok bool)
	pkgs    map[string]*Package
	loading map[string]bool
}

// LoadModule loads every package of the Go module rooted at dir,
// returned in deterministic (import path) order. The walk mirrors the
// go tool's pruning: testdata, hidden and underscore-prefixed
// directories are skipped, and _test.go files are never analyzed — the
// chimelint invariants deliberately exempt test code.
func LoadModule(dir string) ([]*Package, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()

	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]string) // import path -> dir
	err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = filepath.Dir(p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	l := &loader{
		fset: sharedFset,
		resolve: func(path string) (string, bool) {
			d, ok := dirs[path]
			return d, ok
		},
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	paths := make([]string, 0, len(dirs))
	for ip := range dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	var out []*Package
	for _, ip := range paths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadTree loads the named packages from a GOPATH-style source root
// (import path P lives in root/P), the layout analysistest fixtures
// use. Fixture packages may shadow real import paths — a stub
// chime/internal/dmsim under testdata/src stands in for the real one.
func LoadTree(root string, pkgpaths ...string) ([]*Package, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()

	l := &loader{
		fset: sharedFset,
		resolve: func(path string) (string, bool) {
			d := filepath.Join(root, filepath.FromSlash(path))
			if fi, err := os.Stat(d); err == nil && fi.IsDir() {
				return d, true
			}
			return "", false
		},
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	var out []*Package
	for _, ip := range pkgpaths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// importerFunc adapts the loader to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("cannot resolve package %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Build constraints and GOOS/GOARCH suffixes select files as the
		// go tool would for this host (internal/hostmem has one per OS).
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	pkg := &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    l.fset,
		Syntax:  files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	cfg := &types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if _, ok := l.resolve(ip); ok {
				dep, err := l.load(ip)
				if err != nil {
					return nil, err
				}
				return dep.Types, nil
			}
			return stdImporter().Import(ip)
		}),
		Error: func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	pkg.Types, _ = cfg.Check(path, l.fset, files, pkg.TypesInfo)
	l.pkgs[path] = pkg
	return pkg, nil
}
