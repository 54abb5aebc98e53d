package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Standard   bool // part of the Go standard library
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// A Loader loads and type-checks packages using only the standard library:
// `go list -deps -json` resolves build constraints and yields packages in
// dependency order (dependencies strictly before dependents), so a single
// forward pass with go/types and a map-backed importer checks everything —
// no network, no module downloads, no x/tools. Standard-library
// dependencies are checked with IgnoreFuncBodies (only their exported API
// matters); packages under analysis are checked in full.
type Loader struct {
	mu   sync.Mutex
	fset *token.FileSet
	pkgs map[string]*Package
}

// NewLoader returns an empty loader. Loaders cache by import path, so one
// loader may serve several Load calls cheaply.
func NewLoader() *Loader {
	return &Loader{fset: token.NewFileSet(), pkgs: map[string]*Package{}}
}

// Process-wide loader registry for LoaderFor, keyed by absolute directory.
var (
	loadersMu sync.Mutex
	loaders   = map[string]*Loader{}
)

// LoaderFor returns a process-wide shared loader for dir, creating it on
// first use. Every Tool invocation rooted at the same directory — several
// -only runs back to back, or repeated in-process test runs — then shares
// one parse-and-type-check cache instead of re-checking the dependency
// graph per invocation (BenchmarkAbpvetSharedLoader measures the saving).
// The cache trusts the tree not to change underneath it within a process
// lifetime, which holds for CLI runs (one invocation) and test binaries
// (fixtures are static).
func LoaderFor(dir string) *Loader {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return NewLoader() // degrade to uncached rather than fail
	}
	loadersMu.Lock()
	defer loadersMu.Unlock()
	l, ok := loaders[abs]
	if !ok {
		l = NewLoader()
		loaders[abs] = l
	}
	return l
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (for example "./...") relative to dir, type-checks
// the matched packages and every dependency, and returns the matched
// packages sorted by import path.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	// Shared loaders (LoaderFor) may be hit from concurrent tests; the
	// whole Load is one critical section because check mutates the cache.
	l.mu.Lock()
	defer l.mu.Unlock()
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Pure-Go view of the tree: cgo-transparent packages fall back to
	// their Go implementations, which is all the analyzers need.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var roots []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err != nil {
			break // io.EOF on a well-formed stream
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := l.check(&lp)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			roots = append(roots, pkg)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	return roots, nil
}

// check parses and type-checks one listed package, reusing the cache. Its
// imports must already be cached, which `go list -deps` dependency order
// guarantees.
func (l *Loader) check(lp *listedPkg) (*Package, error) {
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	if lp.ImportPath == "unsafe" {
		p := &Package{ImportPath: "unsafe", Standard: true, Fset: l.fset, Types: types.Unsafe}
		l.pkgs["unsafe"] = p
		return p, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:         importerFunc(l.importPkg),
		IgnoreFuncBodies: lp.Standard,
		FakeImportC:      true,
	}
	var softErrs []error
	if lp.Standard {
		// Dependencies only need a usable API surface; collect rather than
		// abort on oddities in library internals.
		conf.Error = func(err error) { softErrs = append(softErrs, err) }
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if err != nil && !lp.Standard {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	p := &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Standard:   lp.Standard,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[lp.ImportPath] = p
	return p, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("package %q not yet loaded (go list -deps order violated?)", path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
