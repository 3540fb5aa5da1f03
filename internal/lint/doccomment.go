package lint

import (
	"go/ast"
	"strings"
)

// DocComment enforces the documentation contract of the observability PR:
// every exported top-level identifier in the instrumented packages carries
// a doc comment, so the operator-facing API reference (godoc and
// docs/OBSERVABILITY.md) can never silently rot. The rules follow godoc
// conventions rather than inventing stricter ones:
//
//   - exported funcs, types, consts, and vars at top level need a doc
//     comment; for grouped const/var/type declarations the group's doc
//     comment suffices;
//   - methods count only when their receiver's base type is itself
//     exported (exported methods on unexported types are reachable only
//     through interfaces, which carry their own docs);
//   - struct fields and interface methods are exempt — the enclosing
//     type's comment is the unit of documentation;
//   - each package needs a package comment on at least one file.
//
// Scope: the packages the telemetry layer touches (core, sched, datastore,
// telemetry) — the ones OBSERVABILITY.md documents — plus the chaos
// surface (faults, retry), which RESILIENCE.md documents, plus the
// workload-trace layer (trace), whose format SCENARIOS.md documents
// field by field, plus the distributed-WM fleet (wmfleet),
// whose lease protocol RESILIENCE.md documents.
var DocComment = &Analyzer{
	Name: "doccomment",
	Doc:  "requires doc comments on exported identifiers in the instrumented packages (core, sched, datastore, telemetry, faults, retry, trace, wmfleet)",
	Scope: func(pkgPath string) bool {
		for _, suffix := range []string{
			"internal/core", "internal/sched", "internal/datastore", "internal/telemetry",
			"internal/faults", "internal/retry", "internal/trace", "internal/wmfleet",
		} {
			if strings.HasSuffix(pkgPath, suffix) {
				return true
			}
		}
		return false
	},
	Run: runDocComment,
}

func runDocComment(pass *Pass) {
	hasPkgDoc := false
	for _, f := range pass.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Name.Pos(), "package %s has no package comment", pass.Files[0].Name.Name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
}

// checkFuncDoc flags an exported func or method without a doc comment.
func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() || hasDoc(d.Doc) {
		return
	}
	kind := "function"
	if d.Recv != nil {
		recv := receiverTypeName(d.Recv)
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		kind = "method"
	}
	pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
}

// checkGenDoc flags exported names in a const/var/type declaration that
// have neither a spec-level nor a group-level doc comment.
func checkGenDoc(pass *Pass, d *ast.GenDecl) {
	groupDoc := hasDoc(d.Doc)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && !hasDoc(s.Doc) {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDoc || hasDoc(s.Doc) {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment",
						valueKind(d), name.Name)
				}
			}
		}
	}
}

// hasDoc reports whether cg contains actual prose (a bare //go:directive
// group does not count as documentation).
func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}

// receiverTypeName unwraps a method receiver to its base type name
// (stripping pointers and type parameters).
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// valueKind renders a GenDecl token as prose ("const" or "variable").
func valueKind(d *ast.GenDecl) string {
	if d.Tok.String() == "const" {
		return "const"
	}
	return "variable"
}
