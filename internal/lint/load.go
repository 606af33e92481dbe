package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("verro/internal/core").
	Path  string
	Files []*ast.File
	Info  *types.Info
}

// listed is the part of one `go list -json` record that Load reads.
type listed struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	Match      []string
	Error      *struct{ Err string }
}

// Load type-checks the packages the patterns match into one Program. A
// pattern is a package
// directory, and a trailing "/..." matches every package below it. The go
// command defines what that means: one `go list -e -export -deps` call
// names each matched package's Go files and compiles every dependency's
// export data, from which the matched packages' imports are resolved. It
// runs in the first pattern's directory, so the patterns' own module is
// the main module; a directory outside any module fails. A matched
// directory that holds only _test.go files is skipped.
//
// Each matched package is parsed and type-checked from source. Its files
// are named relative to the working directory when the pattern that
// matched it is relative, and absolute otherwise.
//
// A failed go list, a package it could not resolve, a parse error or an
// empty match fails the load with no program. A type error fails it too,
// but Load still returns the program with whatever type information
// survived: an analyzer run over code that does not type-check would miss
// what it cannot see, so callers refuse it, and only a test of that
// degraded input reads the program.
func Load(patterns ...string) (*Program, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	args := []string{"list", "-e", "-export", "-deps", "-json=Dir,ImportPath,GoFiles,Export,Match,Error"}
	relative := map[string]bool{}
	var dir string
	for _, p := range patterns {
		root, recursive := strings.CutSuffix(p, "...")
		root = filepath.Clean(root)
		if !filepath.IsAbs(root) {
			root = filepath.Join(wd, root)
		}
		if dir == "" {
			// The go command skips a "..." root named _x, .x or testdata
			// unless it is spelled ".".
			dir, root = root, "."
		}
		if recursive {
			root += "/..."
		}
		relative[root] = !filepath.IsAbs(p)
		args = append(args, root)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("lint: go list %s: %w", strings.Join(patterns, " "), err)
	}

	exports := map[string]string{}
	var matched []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		err := dec.Decode(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if len(p.Match) > 0 {
			matched = append(matched, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})

	var pkgs []*Package
	var typeErrs []error
	for _, p := range matched {
		if len(p.GoFiles) == 0 {
			if p.Error != nil {
				return nil, fmt.Errorf("lint: %s", p.Error.Err)
			}
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			name = filepath.Join(p.Dir, name)
			if rel, err := filepath.Rel(wd, name); err == nil && relative[p.Match[0]] {
				name = rel
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var errs []error
		conf := types.Config{
			Importer: imp,
			// Collect every error rather than stop at the first.
			Error: func(err error) { errs = append(errs, err) },
		}
		conf.Check(p.ImportPath, fset, files, info)
		pkgs = append(pkgs, &Package{Path: p.ImportPath, Files: files, Info: info})
		if len(errs) > 0 {
			typeErrs = append(typeErrs, fmt.Errorf("lint: %s does not type-check: %w", p.ImportPath, errors.Join(errs...)))
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %s", strings.Join(patterns, " "))
	}
	return newProgram(fset, pkgs), errors.Join(typeErrs...)
}
