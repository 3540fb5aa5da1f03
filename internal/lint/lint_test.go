package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The golden files under testdata/src/<analyzer>/ carry `want "regex"`
// comments on every line where the analyzer must report. The harness
// checks both directions: every diagnostic matches a want, and every want
// is matched by a diagnostic.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantDiag struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// chainImporter resolves the already-loaded fixture packages first and
// falls back to the stdlib source importer — the testing twin of the
// driver's moduleImporter.
type chainImporter struct {
	pkgs map[string]*Package
	std  types.Importer
}

func (ci *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := ci.pkgs[path]; ok {
		return p.Types, nil
	}
	return ci.std.Import(path)
}

// loadTestModule parses and type-checks several testdata directories as a
// set of packages sharing one fset, in the given {dir, importPath} order
// (dependencies first) so later fixtures can import earlier ones — the
// multi-package setting the interprocedural analyzers exist for.
func loadTestModule(t *testing.T, specs [][2]string) ([]*Package, []wantDiag) {
	t.Helper()
	fset := token.NewFileSet()
	byPath := map[string]*Package{}
	imp := &chainImporter{pkgs: byPath, std: importer.ForCompiler(fset, "source", nil)}
	var pkgs []*Package
	var wants []wantDiag
	for _, spec := range specs {
		dir, importPath := spec[0], spec[1]
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &Package{Dir: dir, ImportPath: importPath, Fset: fset}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			pkg.Files = append(pkg.Files, f)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
					}
					wants = append(wants, wantDiag{file: path, line: i + 1, re: re})
				}
			}
		}
		if err := typeCheck(fset, pkg, imp); err != nil {
			t.Fatal(err)
		}
		byPath[importPath] = pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs, wants
}

// matchWants verifies diagnostics against want comments bidirectionally:
// every diagnostic matches a want, and every want is matched.
func matchWants(t *testing.T, diags []Diagnostic, wants []wantDiag) {
	t.Helper()
	for _, d := range diags {
		found := false
		for i := range wants {
			w := &wants[i]
			if !w.matched && w.line == d.Line && w.file == d.File && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

// fixture names one golden directory under testdata/src and the import
// path it is loaded as (chosen so the analyzer's Scope accepts it).
func fixture(importPath string, dir ...string) [2]string {
	return [2]string{filepath.Join(append([]string{"testdata", "src"}, dir...)...), importPath}
}

// runGolden loads the fixtures as one module and drives it through
// Module.Run — the entry the CLI uses, suppressions and stale-suppression
// audit included — then verifies the findings against the want comments
// bidirectionally.
func runGolden(t *testing.T, opts RunOptions, specs ...[2]string) {
	t.Helper()
	pkgs, wants := loadTestModule(t, specs)
	for _, a := range opts.Analyzers {
		if !slices.ContainsFunc(pkgs, func(p *Package) bool { return a.Scope == nil || a.Scope(p.ImportPath) }) {
			t.Fatalf("no fixture import path is inside %s's scope", a.Name)
		}
	}
	matchWants(t, (&Module{Pkgs: pkgs}).Run(opts), wants)
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{Determinism}}, fixture("lab/internal/dynim", "determinism"))
}

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{LockDiscipline}}, fixture("lab/internal/kvstore", "lockdiscipline"))
}

func TestErrDisciplineGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{ErrDiscipline}, ErrAllow: []string{"os.RemoveAll"}},
		fixture("errprog", "errdiscipline"))
}

func TestDocCommentGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{DocComment}}, fixture("lab/internal/telemetry", "doccomment"))
}

func TestGoroutineLifecycleGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{GoroutineLifecycle}}, fixture("lab/internal/parallel", "goroutinelifecycle"))
}

func TestLockOrderGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{LockOrder}}, fixture("lab/internal/telemetry", "lockorder"))
}

// concurrency is the three analyzers that read the interprocedural
// summaries.
var concurrency = []*Analyzer{LockDiscipline, GoroutineLifecycle, LockOrder}

// TestInterprocGolden loads two fixture packages where every finding (and
// every proof of safety) requires summaries to propagate across the
// package boundary: a cross-package lock-order cycle, a blocking callee
// behind an import, and join evidence living in the other package.
func TestInterprocGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: concurrency},
		fixture("lab/internal/telemetry", "interproc", "a"), fixture("lab/internal/feedback", "interproc", "b"))
}

// TestScopeFiltersPackages re-runs the determinism golden package under an
// import path outside the analyzer's scope: the run must produce nothing
// even though the source is full of violations.
func TestScopeFiltersPackages(t *testing.T) {
	pkgs, _ := loadTestModule(t, [][2]string{fixture("lab/internal/feedback", "determinism")})
	if diags := (&Module{Pkgs: pkgs}).Run(RunOptions{Analyzers: []*Analyzer{Determinism}}); len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics: %v", len(diags), diags)
	}
}

// TestModuleScopeFilters does the same for the concurrency analyzers: the
// lockdiscipline and goroutinelifecycle fixtures under import paths outside
// concScope are summarized but never reported on.
func TestModuleScopeFilters(t *testing.T) {
	pkgs, _ := loadTestModule(t, [][2]string{
		fixture("lab/internal/ui", "lockdiscipline"), fixture("lab/internal/units", "goroutinelifecycle")})
	if diags := (&Module{Pkgs: pkgs}).Run(RunOptions{Analyzers: concurrency}); len(diags) != 0 {
		t.Errorf("out-of-scope packages produced %d diagnostics: %v", len(diags), diags)
	}
}

// inlinePackage type-checks one source string as a single-package module.
func inlinePackage(t *testing.T, importPath, src string) *Module {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inline.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: ".", ImportPath: importPath, Fset: fset, Files: []*ast.File{f}}
	if err := typeCheck(fset, pkg, importer.ForCompiler(fset, "source", nil)); err != nil {
		t.Fatal(err)
	}
	return &Module{Root: ".", Path: "lab", Fset: fset, Pkgs: []*Package{pkg}}
}

// TestSuppressionPlacement pins down the two blessed comment placements:
// trailing on the offending line, or standalone on the line above. A
// comment two lines up must NOT suppress — and, suppressing nothing, is
// itself reported as stale.
func TestSuppressionPlacement(t *testing.T) {
	m := inlinePackage(t, "lab/internal/dynim", `package p

import "time"

func trailing() int64 {
	return time.Now().UnixNano() //lint:allow determinism -- trailing placement
}

func above() int64 {
	//lint:allow determinism -- standalone placement
	return time.Now().UnixNano()
}

func tooFar() int64 {
	//lint:allow determinism -- two lines up: must not suppress

	return time.Now().UnixNano()
}
`)
	diags := m.Run(RunOptions{Analyzers: []*Analyzer{Determinism}})
	if len(diags) != 2 {
		t.Fatalf("want the stale comment and the tooFar finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "unused-suppression" || diags[0].Line != 15 {
		t.Errorf("got %s, want unused-suppression at line 15", diags[0])
	}
	if diags[1].Analyzer != "determinism" || diags[1].Line != 17 {
		t.Errorf("got %s, want the determinism finding at line 17 (tooFar)", diags[1])
	}
}

// TestModuleSuppressionAndUnused drives an interprocedural analyzer through
// the same path: a //lint:allow must absorb a finding that comes out of the
// summaries, a comment that matches nothing must surface as a synthetic
// unused-suppression finding, and a comment naming an analyzer that did not
// run is not judged.
func TestModuleSuppressionAndUnused(t *testing.T) {
	m := inlinePackage(t, "lab/internal/kvstore", `package p

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) suppressed(v int) {
	b.mu.Lock()
	//lint:allow lockdiscipline -- exercising suppression of summary-based findings
	b.ch <- v
	b.mu.Unlock()
}

//lint:allow lockdiscipline -- stale: matches nothing
func (b *box) clean() {}
`)
	diags := m.Run(RunOptions{Analyzers: concurrency})
	if len(diags) != 1 {
		t.Fatalf("want exactly the stale-comment finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "unused-suppression" || diags[0].Line != 17 {
		t.Errorf("got %s, want unused-suppression at line 17", diags[0])
	}
	if diags := m.Run(RunOptions{Analyzers: []*Analyzer{LockOrder}}); len(diags) != 0 {
		t.Errorf("lockdiscipline comments judged on a run without lockdiscipline: %v", diags)
	}
}

// TestRepoIsLintClean loads the real module and runs the full suite, stale-
// suppression audit included, with the repo's .errallow: the codebase must
// stay finding-free, exactly as `go run ./cmd/mummi-lint ./...` enforces in
// CI.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	errAllow, err := LoadErrAllow(filepath.Join(mod.Root, ".errallow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mod.Run(RunOptions{Analyzers: All(), ErrAllow: errAllow}) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// reachAllow names the exported declarations that no non-test file
// references yet, each with the ROADMAP item that decides its fate: wired
// into an artifact or deleted. The list only shrinks.
var reachAllow = map[string]string{
	"internal/continuum.StateRASOnly":          "Wire it or delete it",
	"internal/continuum.PlanRanks":             "Wire it or delete it",
	"internal/continuum.UnmarshalSnapshot":     "Wire it or delete it",
	"internal/continuum.FullScaleSnapshotSize": "Wire it or delete it",
	"internal/mlenc.DefaultFrameEncoder":       "Wire it or delete it",
	"internal/feedback.NewAAToCG":              "Wire it or delete it",
	"internal/feedback.ExecProcessor":          "Wire it or delete it",
	"internal/sim.NewAASim":                    "Wire it or delete it",
}

// loadUses type-checks the module's non-test files and returns every object
// they reference.
func loadUses(t *testing.T) (*Module, map[types.Object]bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, p := range mod.Pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
	}
	return mod, used
}

// TestEveryExportIsReached holds the module's surface to what its programs
// use: every exported package-level func, type, var and const of a
// non-main package must be referenced from some non-test file (its own
// package's included), or sit in reachAllow. A name only tests reach is
// code kept alive by its own test suite. internal/datastore/dstest is the
// shared test harness and is exempt, as scripts/ci.sh's importer check
// exempts it.
func TestEveryExportIsReached(t *testing.T) {
	mod, used := loadUses(t)
	seen := map[string]bool{}
	for _, p := range mod.Pkgs {
		rel := strings.TrimPrefix(p.ImportPath, mod.Path+"/")
		if p.Types.Name() == "main" || rel == "internal/datastore/dstest" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := rel + "." + name
			_, allowed := reachAllow[key]
			seen[key] = allowed
			switch {
			case allowed && used[obj]:
				t.Errorf("%s is reached now: drop it from reachAllow", key)
			case !allowed && !used[obj]:
				t.Errorf("%s: no non-test file references it; use it, delete it, or unexport it", key)
			}
		}
	}
	for key, item := range reachAllow {
		if !seen[key] {
			t.Errorf("reachAllow names %s (ROADMAP %q), which is no longer declared", key, item)
		}
	}
}

// TestEveryInterfaceMethodIsCalled holds every interface to what its callers
// use: each method of a package-level interface type in a non-main package
// must be called through the interface from some non-test file. A method
// nothing calls that way is an obligation every implementation carries for
// no caller; delete it from the interface and from its implementations.
// internal/datastore/dstest is exempt, as in TestEveryExportIsReached.
func TestEveryInterfaceMethodIsCalled(t *testing.T) {
	mod, used := loadUses(t)
	for _, p := range mod.Pkgs {
		rel := strings.TrimPrefix(p.ImportPath, mod.Path+"/")
		if p.Types.Name() == "main" || rel == "internal/datastore/dstest" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); !used[m] {
					t.Errorf("%s.%s.%s: no non-test file calls it through the interface", rel, name, m.Name())
				}
			}
		}
	}
}
