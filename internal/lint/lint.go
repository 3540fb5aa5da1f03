// Package lint is a from-scratch static-analysis framework for the MuMMI
// codebase, built entirely on the stdlib go/parser + go/ast + go/types
// stack (no golang.org/x/tools dependency). It exists because two of the
// project's load-bearing invariants — the §4.4 locking discipline of the
// workflow manager and the PR 1 determinism contract of the selector
// engine — were previously enforced only by the tests that happened to
// exercise them. The analyzers here turn those invariants into properties
// checked on every build.
//
// Four per-package analyzers ship with the framework:
//
//   - determinism: no iteration-order, RNG, or wall-clock nondeterminism
//     inside the determinism-contracted packages (dynim, parallel, core,
//     faults, kvstore).
//   - lockdiscipline: every Lock has an unlock on all return paths, no
//     blocking operations while a mutex is held (core, sched, faults,
//     kvstore); by-value lock copies are go vet's copylocks.
//   - errdiscipline: no silently discarded errors anywhere in the module,
//     modulo an explicit allowlist.
//   - doccomment: every exported identifier in the instrumented packages
//     carries a doc comment.
//
// On top of those, a shared interprocedural layer (summary.go) builds a
// module-wide call graph and per-function summaries — locks acquired,
// channel operations, goroutines spawned, blocking calls — and three
// module analyzers (module.go) consume them:
//
//   - goroutinelifecycle: every go statement must have a provable
//     shutdown/join path (WaitGroup, context cancellation, or a
//     close-signaled channel).
//   - lockorder: the module-wide lock-acquisition-order graph must be
//     acyclic; cycles are deadlock risks and self-cycles through a call
//     are guaranteed deadlocks.
//   - channeldiscipline: no blocking channel operation while a mutex is
//     held (directly or through a callee), no send on a channel that
//     another path closes without an ordering guard, and no blocking send
//     on a bounded channel with unflushed buffered writes pending (the
//     pipelined-kvstore flush-before-block rule).
//
// Findings can be suppressed with a
//
//	//lint:allow <analyzer> [<analyzer>...] -- <reason>
//
// comment on the offending line or the line directly above it; the reason
// is mandatory by convention, and the -unused-suppressions mode (CI's
// default) turns any allow comment that no longer matches a finding into
// its own diagnostic, so stale exceptions cannot accumulate. The
// self-clean test keeps the repo honest under all of the above.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	// Scope decides whether the analyzer applies to a package (by import
	// path). A nil Scope means every package in the module.
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ErrAllow is the error-discipline allowlist (symbol patterns); only
	// the errdiscipline analyzer consults it.
	ErrAllow []string

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shortcut for p.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, LockDiscipline, ErrDiscipline, DocComment}
}

// ByName resolves a comma-separated per-package analyzer list
// ("determinism,errdiscipline"). Module analyzers are resolved by
// SelectAnalyzers (module.go), which mixes both kinds.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range splitNames(names) {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}

func splitNames(names string) []string {
	var out []string
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Suppression: //lint:allow <name>... [-- reason]

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([a-z, ]+?)\s*(?:--.*)?$`)

// allowComment is one //lint:allow comment. It suppresses findings on its
// own line and on the line directly below it (covering both trailing and
// standalone placement), and remembers whether it ever absorbed a finding
// so stale comments can be reported.
type allowComment struct {
	file  string
	line  int // the comment's own line
	names map[string]bool
	used  bool
}

func (c *allowComment) allows(d Diagnostic) bool {
	if d.File != c.file || (d.Line != c.line && d.Line != c.line+1) {
		return false
	}
	return c.names[d.Analyzer] || c.names["all"]
}

// SuppressionTable indexes every //lint:allow comment in a run and tracks
// which ones actually suppressed something.
type SuppressionTable struct {
	byFile map[string][]*allowComment
	all    []*allowComment
}

// NewSuppressionTable returns an empty table; fill it with Add.
func NewSuppressionTable() *SuppressionTable {
	return &SuppressionTable{byFile: map[string][]*allowComment{}}
}

// Add indexes the allow comments of one package's files.
func (t *SuppressionTable) Add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ac := &allowComment{file: pos.Filename, line: pos.Line, names: map[string]bool{}}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool {
					return r == ' ' || r == ','
				}) {
					ac.names[name] = true
				}
				t.byFile[ac.file] = append(t.byFile[ac.file], ac)
				t.all = append(t.all, ac)
			}
		}
	}
}

// Allows reports whether some comment suppresses d, marking it used.
func (t *SuppressionTable) Allows(d Diagnostic) bool {
	hit := false
	for _, c := range t.byFile[d.File] {
		if c.allows(d) {
			c.used = true
			hit = true
		}
	}
	return hit
}

// Unused returns one synthetic finding per comment that suppressed nothing,
// restricted to comments whose analyzers all actually ran (a determinism
// allow is not stale just because only errdiscipline ran). Comments naming
// "all" are only auditable on a full run, so they are judged whenever any
// analyzer ran.
func (t *SuppressionTable) Unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, c := range t.all {
		if c.used {
			continue
		}
		judgeable := true
		for name := range c.names {
			if name != "all" && !ran[name] {
				judgeable = false
				break
			}
		}
		if !judgeable {
			continue
		}
		names := make([]string, 0, len(c.names))
		for name := range c.names {
			names = append(names, name)
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Analyzer: "unused-suppression",
			File:     c.file,
			Line:     c.line,
			Col:      1,
			Message: fmt.Sprintf("//lint:allow %s suppresses nothing; delete the stale comment",
				strings.Join(names, ",")),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Running

// RunAnalyzers applies each in-scope analyzer to pkg, filters suppressed
// findings, and returns the rest sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, errAllow []string) []Diagnostic {
	sup := NewSuppressionTable()
	sup.Add(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			ErrAllow: errAllow,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if !sup.Allows(d) {
				out = append(out, d)
			}
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
