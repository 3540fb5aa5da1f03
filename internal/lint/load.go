package lint

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
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (*_test.go) are excluded: tests may deliberately
// exercise nondeterminism or discard errors, and the invariants guarded
// here are production-code invariants.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is the loaded module: every non-test package under the root,
// type-checked in dependency order.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // topological (dependencies first)
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every package under root. Directories
// named testdata or vendor, hidden directories, and underscore-prefixed
// directories are skipped, matching the go tool's matching rules.
func LoadModule(root string) (*Module, error) {
	root, modPath, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Root: root, Path: modPath, Fset: fset}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	parsed := map[string]*Package{} // by import path
	for _, dir := range dirs {
		pkg, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			pkg.ImportPath = modPath
		} else {
			pkg.ImportPath = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[pkg.ImportPath] = pkg
	}

	order, err := topoSort(parsed, modPath)
	if err != nil {
		return nil, err
	}

	imp := newModuleImporter(fset, modPath, parsed)
	for _, path := range order {
		pkg := parsed[path]
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// parseDir parses the non-test Go files of one directory that go build
// would compile here (GOOS/GOARCH suffixes and //go:build lines: one
// function's per-architecture bodies are not a redeclaration). Returns nil
// if the directory holds no buildable Go files.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// topoSort orders the module's packages dependencies-first.
func topoSort(pkgs map[string]*Package, modPath string) ([]string, error) {
	const (
		white = iota // unvisited
		grey         // on stack
		black        // done
	)
	state := map[string]int{}
	var order []string
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), path)
		}
		state[path] = grey
		pkg := pkgs[path]
		deps := map[string]bool{}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				dep := strings.Trim(spec.Path.Value, `"`)
				if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
					deps[dep] = true
				}
			}
		}
		sorted := make([]string, 0, len(deps))
		for d := range deps {
			sorted = append(sorted, d)
		}
		sort.Strings(sorted)
		for _, dep := range sorted {
			if pkgs[dep] == nil {
				return fmt.Errorf("lint: %s imports %s, which has no source in the module", path, dep)
			}
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal import paths to the packages
// type-checked earlier in topological order, and everything else (the
// standard library) through the stdlib source importer — keeping the whole
// pipeline free of external dependencies and of compiled export data.
type moduleImporter struct {
	modPath string
	pkgs    map[string]*Package
	std     types.Importer
}

func newModuleImporter(fset *token.FileSet, modPath string, pkgs map[string]*Package) *moduleImporter {
	return &moduleImporter{
		modPath: modPath,
		pkgs:    pkgs,
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == mi.modPath || strings.HasPrefix(path, mi.modPath+"/") {
		pkg := mi.pkgs[path]
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("lint: internal import %q not yet type-checked", path)
		}
		return pkg.Types, nil
	}
	return mi.std.Import(path)
}

func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// LoadErrAllow reads an errdiscipline allowlist file: one FullName-style
// symbol pattern per line (optional trailing '*' wildcard), with blank
// lines and '#' comments ignored.
func LoadErrAllow(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}

// Match reports whether pkg falls under any of the ./...-style patterns,
// interpreted relative to the module root: "./..." matches everything,
// "./internal/..." matches the subtree, "./internal/core" matches exactly.
func (m *Module) Match(pkg *Package, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel, err := filepath.Rel(m.Root, pkg.Dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || (pat == "." && rel == ".") {
			return true
		}
	}
	return false
}
