// Package lint is a from-scratch static-analysis framework for the MuMMI
// codebase, built entirely on the stdlib go/parser + go/ast + go/types
// stack (no golang.org/x/tools dependency). It turns invariants that Go's
// type system cannot state — above all the determinism contract of the
// replay — into properties checked on every build. Three analyzers ship;
// docs/LINT.md has each one's scope and the seeded-bug record of what it is
// the only gate for.
//
//   - determinism: no iteration-order, RNG, or wall-clock nondeterminism
//     inside the determinism-contracted packages.
//   - errdiscipline: no silently discarded errors anywhere in the module,
//     modulo an explicit allowlist.
//   - doccomment: every exported identifier in the instrumented packages
//     carries a doc comment.
//
// Findings can be suppressed with a
//
//	//lint:allow <analyzer> [<analyzer>...] -- <reason>
//
// comment on the offending line or the line directly above it; the reason
// is mandatory by convention. An allow comment that no longer matches a
// finding, or that names no analyzer of the suite, is its own diagnostic,
// so stale exceptions cannot accumulate. The self-clean test keeps the repo
// honest under all of the above.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	// Scope decides which packages (by import path) findings are reported
	// in. A nil Scope means every package in the module.
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	*Package
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
	return []*Analyzer{Determinism, ErrDiscipline, DocComment}
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
	return c.names[d.Analyzer]
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

// Unused returns one synthetic finding per comment that names an analyzer
// outside All() — a misspelt or deleted name can never suppress anything —
// and per comment that suppressed nothing although all its analyzers ran
// (a determinism allow is not stale just because only errdiscipline ran).
func (t *SuppressionTable) Unused(ran map[string]bool) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, c := range t.all {
		names := make([]string, 0, len(c.names))
		var unknown []string
		judgeable := !c.used
		for name := range c.names {
			names = append(names, name)
			if !known[name] {
				unknown = append(unknown, name)
			}
			judgeable = judgeable && ran[name]
		}
		sort.Strings(names)
		sort.Strings(unknown)
		msg := ""
		switch {
		case len(unknown) > 0:
			msg = fmt.Sprintf("//lint:allow names %s, not an analyzer of this suite (mummi-lint -list)",
				strings.Join(unknown, ","))
		case judgeable:
			msg = fmt.Sprintf("//lint:allow %s suppresses nothing; delete the stale comment",
				strings.Join(names, ","))
		default:
			continue
		}
		out = append(out, Diagnostic{Analyzer: "unused-suppression", File: c.file, Line: c.line, Col: 1, Message: msg})
	}
	return out
}

// ---------------------------------------------------------------------------
// Running

// RunOptions configures one lint run.
type RunOptions struct {
	Analyzers []*Analyzer
	ErrAllow  []string
	// Patterns restricts which packages findings may be reported in
	// (./...-style, nil = all).
	Patterns []string
}

// Run is the single entry point the CLI, the golden tests and the
// self-clean test share: it applies each analyzer to every matched package
// in its scope, drops suppressed findings, adds an "unused-suppression"
// finding for every //lint:allow comment that suppressed nothing or names
// no analyzer of the suite, and returns the lot sorted by position.
func (m *Module) Run(opts RunOptions) []Diagnostic {
	table := NewSuppressionTable()
	var matched []*Package
	for _, pkg := range m.Pkgs {
		if m.Match(pkg, opts.Patterns) {
			matched = append(matched, pkg)
			table.Add(pkg.Fset, pkg.Files)
		}
	}
	var out []Diagnostic
	ran := map[string]bool{}
	for _, a := range opts.Analyzers {
		for _, pkg := range matched {
			if a.Scope != nil && !a.Scope(pkg.ImportPath) {
				continue
			}
			ran[a.Name] = true
			pass := &Pass{Analyzer: a, Package: pkg, ErrAllow: opts.ErrAllow}
			a.Run(pass)
			for _, d := range pass.diags {
				if !table.Allows(d) {
					out = append(out, d)
				}
			}
		}
	}
	out = append(out, table.Unused(ran)...)
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return out
}
