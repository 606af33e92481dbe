package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package directory.
type Package struct {
	// Dir is the directory the package was loaded from.
	Dir string
	// Path is the package's import path ("verro/internal/core"), or a
	// fixture placeholder when the directory is outside a module.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow *AllowIndex
}

// Allow returns the package's //lint:allow index, built on first use and
// shared by every suite that analyzes the package — sharing is what lets
// suppression hits accumulate across suites so StaleAllows sees the whole
// run. Not concurrency-safe; drivers analyze one package from one
// goroutine at a time.
func (p *Package) Allow() *AllowIndex {
	if p.allow == nil {
		p.allow = BuildAllowIndex(p.Fset, p.Files)
	}
	return p.allow
}

// Loader parses and type-checks package directories. It shares one FileSet
// and one source importer across Load calls, so dependencies are
// type-checked once per Loader rather than once per importing package.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
	// IncludeTests makes Load parse _test.go files as well. The in-package
	// test files join the package; black-box _test packages are skipped
	// (they only exercise the public API and hold no pipeline code).
	IncludeTests bool
}

// NewLoader returns a loader backed by the stdlib source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load parses every .go file in dir (non-recursively, mirroring a Go
// package) and type-checks the result. A parse error fails the load with
// no package. A type error fails it too, but Load still returns the
// package with whatever type information survived: an analyzer run over
// code that does not type-check would miss what it cannot see, so callers
// refuse it, and only a test of that degraded input reads the package.
func (l *Loader) Load(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	byPkg := map[string][]*ast.File{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	// A directory can hold the package plus its black-box _test package;
	// analyze the non-_test one.
	var files []*ast.File
	var pkgName string
	for name, fs := range byPkg {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		if pkgName != "" {
			return nil, fmt.Errorf("lint: multiple packages %q and %q in %s", pkgName, name, dir)
		}
		pkgName, files = name, fs
	}
	if pkgName == "" {
		return nil, fmt.Errorf("lint: only test packages in %s", dir)
	}

	path := importPath(dir, pkgName)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		// Collect every error rather than stop at the first.
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	pkg := &Package{Dir: dir, Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	if len(typeErrs) > 0 {
		return pkg, fmt.Errorf("lint: %s does not type-check: %w", dir, errors.Join(typeErrs...))
	}
	return pkg, nil
}

// importPath derives the package's import path from the enclosing module:
// module path + the directory's location under the go.mod root. Directories
// outside any module (lint fixtures) fall back to the package name.
func importPath(dir, pkgName string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return pkgName
	}
	root := abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			if mod := modulePath(data); mod != "" {
				rel, err := filepath.Rel(root, abs)
				if err != nil || rel == "." {
					return mod
				}
				return mod + "/" + filepath.ToSlash(rel)
			}
		}
		parent := filepath.Dir(root)
		if parent == root {
			return pkgName
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}
