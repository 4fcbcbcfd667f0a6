package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Loader is the tier-2 type-checking substrate: it resolves and checks
// module-local packages from source, delegating standard-library imports
// to go/importer's source importer. Results are memoized per Loader, so
// one lint run type-checks each package at most once.
//
// Failure is a first-class outcome, not an error path: a package that
// does not type-check (syntax damage, missing dependency, exotic build
// constraints) yields a Loaded with Err set, and every tier-2 analyzer
// degrades to a silent skip for that package. Tier-2 rules add findings
// on top of tier 1; they must never invent one from partial type facts.
type Loader struct {
	// Fset is shared by every package the loader parses, so positions in
	// tier-2 diagnostics are directly comparable with suppression
	// directives collected from the same files.
	Fset *token.FileSet

	root   string // module root directory
	module string // module path from go.mod

	pkgs    map[string]*Loaded // keyed by slash-separated dir relative to root ("." = root)
	loading map[string]bool    // cycle guard

	stdErr error // sticky failure constructing the std importer
}

// Loaded is one type-checked package: the parsed files (comments
// included, test files excluded), the checked *types.Package, and the
// populated *types.Info. When Err is non-nil the other fields are
// best-effort and tier-2 analysis must not run.
type Loaded struct {
	// Fset is the loader's FileSet, the one every position in Files
	// resolves against.
	Fset *token.FileSet
	// Dir is the package directory relative to the module root, slash
	// separated; "." is the root package.
	Dir string
	// PkgPath is the full import path (module path + Dir).
	PkgPath string
	// Files are the parsed non-test files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the expression types, object resolution, selections and
	// generic instantiation records the taint engine consumes.
	Info *types.Info
	// Err is non-nil when the package failed to parse or type-check; the
	// package then gets tier-1 analysis only.
	Err error
}

// stdImporter is the process-wide source importer for GOROOT packages.
// Checking the standard library from source is the expensive part of
// tier 2 (~1s cold), so it is shared across Loaders and guarded by a
// mutex; std positions land in a private FileSet nobody reports against.
var (
	stdOnce    sync.Once
	stdImp     types.ImporterFrom
	stdInitErr error
	stdMu      sync.Mutex
)

func stdImporter() (types.ImporterFrom, error) {
	stdOnce.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				stdInitErr = fmt.Errorf("lint: source importer unavailable: %v", r)
			}
		}()
		imp, ok := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
		if !ok {
			stdInitErr = fmt.Errorf("lint: source importer lacks ImportFrom")
			return
		}
		stdImp = imp
	})
	return stdImp, stdInitErr
}

// importStd resolves a standard-library import through the shared source
// importer.
func importStd(path string) (*types.Package, error) {
	imp, err := stdImporter()
	if err != nil {
		return nil, err
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return imp.ImportFrom(path, "", 0)
}

// NewLoader builds a Loader for the module rooted at root. It fails only
// when the module path cannot be determined; per-package type failures
// are reported through Loaded.Err instead.
func NewLoader(root string) (*Loader, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		pkgs:    map[string]*Loaded{},
		loading: map[string]bool{},
	}, nil
}

// Module returns the module path the loader resolves local imports
// against.
func (l *Loader) Module() string { return l.module }

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Load type-checks the package in the given directory (relative to the
// module root, slash separated, "." for the root package) and memoizes
// the result. It never returns nil.
func (l *Loader) Load(dir string) *Loaded {
	dir = filepath.ToSlash(filepath.Clean(dir))
	if lp, ok := l.pkgs[dir]; ok {
		return lp
	}
	if l.loading[dir] {
		lp := &Loaded{Fset: l.Fset, Dir: dir, Err: fmt.Errorf("lint: import cycle through %s", dir)}
		l.pkgs[dir] = lp
		return lp
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	lp := l.check(dir)
	l.pkgs[dir] = lp
	return lp
}

// check does the actual parse + type-check for one directory.
func (l *Loader) check(dir string) *Loaded {
	pkgPath := l.module
	if dir != "." {
		pkgPath = l.module + "/" + dir
	}
	lp := &Loaded{Fset: l.Fset, Dir: dir, PkgPath: pkgPath}

	files, err := parseDir(l.Fset, filepath.Join(l.root, dir), false)
	if err != nil {
		lp.Err = err
		return lp
	}
	if len(files) == 0 {
		lp.Err = fmt.Errorf("lint: no buildable Go files in %s", dir)
		return lp
	}
	lp.Files = files

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		err = typeErrs[0]
	}
	if err != nil {
		lp.Err = fmt.Errorf("lint: typecheck %s: %w", pkgPath, err)
		return lp
	}
	lp.Pkg = pkg
	lp.Info = info
	return lp
}

// loaderImporter adapts Loader to types.ImporterFrom: module-local
// import paths are checked from source through the same Loader;
// everything else goes to the shared standard-library importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := "."
		if path != l.module {
			rel = strings.TrimPrefix(path, l.module+"/")
		}
		lp := l.Load(rel)
		if lp.Err != nil {
			return nil, lp.Err
		}
		return lp.Pkg, nil
	}
	return importStd(path)
}
