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
	"sync"
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

// fixtureFset and fixtureStd are shared by every fixture load, so the stdlib
// packages the fixtures import are type-checked from source once per run.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadTestModule parses and type-checks several testdata directories as a
// set of packages, in the given {dir, importPath} order (dependencies
// first) so later fixtures can import earlier ones.
func loadTestModule(t *testing.T, specs [][2]string) ([]*Package, []wantDiag) {
	t.Helper()
	byPath := map[string]*Package{}
	imp := &chainImporter{pkgs: byPath, std: fixtureStd}
	var pkgs []*Package
	var wants []wantDiag
	for _, spec := range specs {
		dir, importPath := spec[0], spec[1]
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &Package{Dir: dir, ImportPath: importPath, Fset: fixtureFset}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments)
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
		if err := typeCheck(fixtureFset, pkg, imp); err != nil {
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

func TestErrDisciplineGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{ErrDiscipline}, ErrAllow: []string{"os.RemoveAll"}},
		fixture("errprog", "errdiscipline"))
}

func TestDocCommentGolden(t *testing.T) {
	runGolden(t, RunOptions{Analyzers: []*Analyzer{DocComment}}, fixture("lab/internal/telemetry", "doccomment"))
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

// TestModuleScopeFilters holds RunOptions.Patterns to its word: of two
// fixtures full of findings, a run whose pattern names one reports in that
// one alone.
func TestModuleScopeFilters(t *testing.T) {
	pkgs, _ := loadTestModule(t, [][2]string{
		fixture("lab/internal/dynim", "determinism"), fixture("errprog", "errdiscipline")})
	m := &Module{Root: filepath.Join("testdata", "src"), Pkgs: pkgs}
	diags := m.Run(RunOptions{Analyzers: All(), Patterns: []string{"./errdiscipline"}})
	if len(diags) == 0 {
		t.Fatal("no findings in the fixture the pattern names")
	}
	for _, d := range diags {
		if filepath.Base(filepath.Dir(d.File)) != "errdiscipline" {
			t.Errorf("finding outside the pattern: %s", d)
		}
	}
}

// inlinePackage type-checks one source string as a single-package module.
func inlinePackage(t *testing.T, importPath, src string) *Module {
	t.Helper()
	f, err := parser.ParseFile(fixtureFset, "inline.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: ".", ImportPath: importPath, Fset: fixtureFset, Files: []*ast.File{f}}
	if err := typeCheck(fixtureFset, pkg, fixtureStd); err != nil {
		t.Fatal(err)
	}
	return &Module{Root: ".", Path: "lab", Fset: fixtureFset, Pkgs: []*Package{pkg}}
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

// TestModuleSuppressionAndUnused runs the whole suite, then errdiscipline
// alone, over one package: a //lint:allow must absorb its finding, a comment
// that matches nothing is a synthetic unused-suppression finding unless one
// of its analyzers did not run, and so is a comment naming an analyzer the
// suite does not have, whether or not it matches a finding.
func TestModuleSuppressionAndUnused(t *testing.T) {
	m := inlinePackage(t, "lab/internal/dynim", `package p

import "time"

func suppressed() int64 {
	//lint:allow determinism -- exercising suppression through Module.Run
	return time.Now().UnixNano()
}

//lint:allow errdiscipline -- stale: matches nothing
func clean() {}

func misspelt() int64 {
	return time.Now().UnixNano() //lint:allow determinism lockdiscipline -- one name is no analyzer
}
`)
	// With errdiscipline alone the determinism allow at line 7 absorbs
	// nothing, but determinism did not run, so it is not judged stale.
	for _, analyzers := range [][]*Analyzer{All(), {ErrDiscipline}} {
		diags := m.Run(RunOptions{Analyzers: analyzers})
		if len(diags) != 2 {
			t.Fatalf("%d analyzers: want the stale comment and the unknown name, got %d: %v",
				len(analyzers), len(diags), diags)
		}
		if d := diags[0]; d.Analyzer != "unused-suppression" || d.Line != 10 || !strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("%d analyzers: got %s, want the stale errdiscipline comment at line 10", len(analyzers), d)
		}
		if d := diags[1]; d.Analyzer != "unused-suppression" || d.Line != 14 || !strings.Contains(d.Message, "names lockdiscipline") {
			t.Errorf("%d analyzers: got %s, want the unknown name lockdiscipline at line 14", len(analyzers), d)
		}
	}
}

// repoModule is the module this package sits in, type-checked once for the
// three tests that read all of it.
var repoModule = sync.OnceValues(func() (*Module, error) { return LoadModule(filepath.Join("..", "..")) })

func loadRepo(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	mod, err := repoModule()
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestRepoIsLintClean loads the real module and runs the full suite, stale-
// suppression audit included, with the repo's .errallow: the codebase must
// stay finding-free, exactly as `go run ./cmd/mummi-lint ./...` enforces in
// CI.
func TestRepoIsLintClean(t *testing.T) {
	mod := loadRepo(t)
	errAllow, err := LoadErrAllow(filepath.Join(mod.Root, ".errallow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mod.Run(RunOptions{Analyzers: All(), ErrAllow: errAllow}) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// reachAllow names the exported declarations and methods that no non-test
// file reaches yet, each with the reason it stays: the ROADMAP item that
// decides its fate (wired into an artifact or deleted), or the other
// packages' tests that drive it. Methods of a type whose constructor is
// listed share its entry. The list only shrinks.
var reachAllow = map[string]string{
	"internal/feedback.NewAAToCG":     "Wire it or delete it",
	"internal/feedback.ExecProcessor": "Wire it or delete it",
	"internal/sim.NewAASim":           "Wire it or delete it",
	"internal/vclock.Virtual.Pending": "Live state is flat across allocations",

	"internal/cluster.Machine.UsedCores":      "sched's and core's tests check that cores are held and released",
	"internal/kvstore.Cluster.Failovers":      "kvstore_test's chaos run checks that a primary kill fails over",
	"internal/kvstore.Deployment.KillPrimary": "kvstore_test's failover tests kill a shard primary",
	"internal/kvstore.Deployment.Primary":     "kvstore_test's replication tests dump a primary's engine",
	"internal/kvstore.Deployment.Replica":     "kvstore_test's replication tests dump a replica's engine",
	"internal/kvstore.Engine.Get":             "kvstore_test's replication tests dump a primary's engine",
	"internal/kvstore.Server.Engine":          "kvstore_test's replication tests dump a primary's engine",
	"internal/kvstore.Server.ReplicaDegraded": "kvstore_test's replication tests check the replica link held",
	"internal/sched.Scheduler.Complete":       "core's workflow tests finish a job by hand",
	"internal/sched.Scheduler.Drain":          "core's workflow and the integration tests drain a node",
	"internal/telemetry.Tracer.SpanNames":     "campaign's telemetry test checks the spans a replay records",
}

// usesOf returns every object mod's files reference, a method of a generic
// type as its origin.
func usesOf(mod *Module) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, p := range mod.Pkgs {
		for _, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
	}
	return used
}

// loadUses returns the module and every object its non-test files
// reference.
func loadUses(t *testing.T) (*Module, map[types.Object]bool) {
	t.Helper()
	mod := loadRepo(t)
	return mod, usesOf(mod)
}

// reachedThroughInterfaces returns the methods that a non-test caller
// reaches without naming them: those that implement, directly or promoted
// through an embedded field, a method that non-test code calls through an
// interface, or any method of an interface declared in a standard-library
// package the module imports, which the library itself calls (fmt a String,
// container/heap a Less, go/ast a Visit).
func reachedThroughInterfaces(mod *Module, used map[types.Object]bool) map[types.Object]bool {
	// wants maps each interface to the names of its methods that count.
	wants := map[*types.Interface][]string{}
	addAll := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			wants[iface] = append(wants[iface], iface.Method(i).Name())
		}
	}
	addAll(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std := map[*types.Package]bool{}
	var named []*types.Named
	for _, p := range mod.Pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == mod.Path || strings.HasPrefix(imp.Path(), mod.Path+"/") || std[imp] {
				continue
			}
			std[imp] = true
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if iface, ok := n.Underlying().(*types.Interface); ok {
						addAll(iface)
					}
				}
			}
		}
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for obj := range used {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				wants[iface] = append(wants[iface], f.Name())
			}
		}
	}
	reached := map[types.Object]bool{}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for iface, names := range wants {
			if iface.NumMethods() == 0 || !types.Implements(ptr, iface) {
				continue
			}
			for _, name := range names {
				if sel := mset.Lookup(nil, name); sel != nil {
					reached[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return reached
}

// TestReachedThroughInterfaces holds reachedThroughInterfaces to its rules
// on one package: a method that implements a method the code calls through
// an interface is reached, so is one that implements a standard-library
// interface (String for fmt), and a method nothing calls is not.
func TestReachedThroughInterfaces(t *testing.T) {
	m := inlinePackage(t, "lab/internal/reach", `package p

import "fmt"

type shower interface{ Show() string }

type Outer struct{ Inner }

type Inner struct{}

func (*Inner) Show() string { return "" }
func (*Inner) Hide()        {}

type Named struct{}

func (Named) String() string { return "" }

func Use(s shower) string { return s.Show() + fmt.Sprint(Named{}) }

var _ = Use(&Outer{})
`)
	pkg := m.Pkgs[0].Types
	reached := reachedThroughInterfaces(m, usesOf(m))
	for _, c := range []struct {
		typ, method string
		want        bool
	}{{"Inner", "Show", true}, {"Named", "String", true}, {"Inner", "Hide", false}} {
		obj, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup(c.typ).Type(), true, pkg, c.method)
		if reached[obj] != c.want {
			t.Errorf("%s.%s reached = %v, want %v", c.typ, c.method, reached[obj], c.want)
		}
	}
}

// TestEveryExportIsReached holds the module's surface to what its programs
// use: every exported package-level func, type, var and const of a
// non-main package, and every exported method of its package-level named
// types, must be reached from some non-test file (its own package's
// included), or sit in reachAllow. A method is reached when non-test code
// uses it, or through an interface as reachedThroughInterfaces says. A
// name only tests reach is code kept alive by its own test suite.
// internal/datastore/dstest is the shared test harness and is exempt, as
// scripts/ci.sh's importer check exempts it.
func TestEveryExportIsReached(t *testing.T) {
	mod, used := loadUses(t)
	viaIface := reachedThroughInterfaces(mod, used)
	seen := map[string]bool{}
	check := func(key string, reached bool) {
		_, allowed := reachAllow[key]
		seen[key] = true
		switch {
		case allowed && reached:
			t.Errorf("%s is reached now: drop it from reachAllow", key)
		case !allowed && !reached:
			t.Errorf("%s: no non-test file reaches it; use it, delete it, or unexport it", key)
		}
	}
	for _, p := range mod.Pkgs {
		rel := strings.TrimPrefix(p.ImportPath, mod.Path+"/")
		if p.Types.Name() == "main" || rel == "internal/datastore/dstest" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(rel+"."+name, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			if _, shared := reachAllow[rel+".New"+name]; shared {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					check(rel+"."+name+"."+m.Name(), used[m] || viaIface[m])
				}
			}
		}
	}
	for key, item := range reachAllow {
		if !seen[key] {
			t.Errorf("reachAllow names %s (%q), which is no longer declared", key, item)
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
