package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the PR 1 selector-engine contract — bit-identical
// selections for any worker count, replay-stable workflow-manager traces —
// at the source level. Inside the contracted packages it flags the four
// ways nondeterminism usually leaks into Go code:
//
//  1. ranging over a map (iteration order is randomized by the runtime),
//     unless the loop only collects keys/values into a slice that the very
//     next statement sorts — the repo's canonical sweep idiom;
//  2. the global math/rand functions (shared, unseeded stream; the
//     contract requires per-component *rand.Rand seeded from the config);
//  3. time.Now (wall clock; everything runs on vclock virtual time);
//  4. select statements with multiple communication cases (the runtime
//     picks a ready case pseudo-randomly).
//
// Scope: the selector engine (dynim, parallel) plus the workflow
// manager (core), whose checkpoint/restore sweeps feed campaign replays,
// plus the fault-injection engine (faults), whose schedules must be a pure
// function of the plan seed for chaos replays to be byte-identical, plus
// the kv store (kvstore), whose wire command order and snapshot bytes must
// be a pure function of the data — map iteration order must never reach
// the wire (socket deadlines are the one annotated exception), plus the
// distributed-WM fleet (wmfleet), whose lease acquisition, renewal, and
// adoption schedule must replay byte-identically per campaign seed.
// dynim and parallel import no module packages outside this set, so
// whole-package analysis over-approximates "reachable from the
// FarthestPoint rank/selection paths".
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags map-range iteration, global math/rand, time.Now, and multi-case select in determinism-contracted packages",
	Scope: func(pkgPath string) bool {
		for _, suffix := range []string{
			"internal/dynim", "internal/parallel", "internal/core",
			"internal/faults", "internal/kvstore", "internal/wmfleet",
		} {
			if strings.HasSuffix(pkgPath, suffix) {
				return true
			}
		}
		return false
	},
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		v := &determinismVisitor{pass: pass}
		ast.Walk(v, f)
	}
}

type determinismVisitor struct {
	pass *Pass
	// sortedRanges marks map-range statements proven to be followed by a
	// sort of the slice they collect into (set while visiting the
	// enclosing statement list, consumed when the RangeStmt is visited).
	sortedRanges map[*ast.RangeStmt]bool
}

func (v *determinismVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.BlockStmt:
		v.markSortedCollects(n.List)
	case *ast.CaseClause:
		v.markSortedCollects(n.Body)
	case *ast.CommClause:
		v.markSortedCollects(n.Body)
	case *ast.RangeStmt:
		v.checkRange(n)
	case *ast.CallExpr:
		v.checkCall(n)
	case *ast.SelectStmt:
		v.checkSelect(n)
	}
	return v
}

// checkRange flags `for ... := range m` when m is a map, unless the loop
// was pre-approved as a sorted key-collection.
func (v *determinismVisitor) checkRange(rs *ast.RangeStmt) {
	t := v.pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if v.sortedRanges[rs] {
		return
	}
	v.pass.Reportf(rs.For,
		"map iteration order is nondeterministic; collect keys and sort before use (the sweep idiom), or annotate //lint:allow determinism with a reason if order provably cannot matter")
}

// markSortedCollects scans a statement list for the sweep idiom
//
//	for k := range m { ids = append(ids, k) }
//	sort.Slice(ids, ...)            // or sort.Ints / slices.Sort / ...
//
// and pre-approves the range statement.
func (v *determinismVisitor) markSortedCollects(stmts []ast.Stmt) {
	for i, s := range stmts {
		rs, ok := s.(*ast.RangeStmt)
		if !ok || i+1 >= len(stmts) {
			continue
		}
		target := collectTarget(rs)
		if target == "" {
			continue
		}
		if sortsSlice(stmts[i+1], target) {
			if v.sortedRanges == nil {
				v.sortedRanges = map[*ast.RangeStmt]bool{}
			}
			v.sortedRanges[rs] = true
		}
	}
}

// collectTarget returns the name of the slice a range body appends into,
// or "" if the body does anything besides `x = append(x, ...)`.
func collectTarget(rs *ast.RangeStmt) string {
	if rs.Body == nil || len(rs.Body.List) == 0 {
		return ""
	}
	target := ""
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return ""
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return ""
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return ""
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) < 1 {
			return ""
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return ""
		}
		if target != "" && target != lhs.Name {
			return ""
		}
		target = lhs.Name
	}
	return target
}

// sortsSlice reports whether stmt is a call to a recognized stdlib sorting
// function with the named slice as first argument.
func sortsSlice(stmt ast.Stmt, name string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch pkg.Name {
	case "sort":
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
		default:
			return false
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && arg.Name == name
}

// checkCall flags global math/rand functions and time.Now.
func (v *determinismVisitor) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	// Only package-level functions: the selector base must be a package
	// name, not a value (seeded *rand.Rand methods are the sanctioned way).
	if _, isPkg := v.pass.Info.Uses[id].(*types.PkgName); !isPkg {
		return
	}
	fn, ok := v.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf", "NewExpFloat64":
			return // constructors for seeded generators are the fix, not the bug
		}
		v.pass.Reportf(call.Pos(),
			"global math/rand.%s draws from a process-wide stream; use a seeded *rand.Rand owned by the component", fn.Name())
	case "time":
		if fn.Name() == "Now" {
			v.pass.Reportf(call.Pos(),
				"time.Now reads the wall clock; determinism-contracted code must take time from the injected vclock.Clock")
		}
	}
}

// checkSelect flags select statements with two or more communication
// cases: when several are ready the runtime chooses pseudo-randomly.
func (v *determinismVisitor) checkSelect(sel *ast.SelectStmt) {
	comm := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		v.pass.Reportf(sel.Select,
			"select with %d communication cases resolves ready cases pseudo-randomly; restructure to a deterministic priority order", comm)
	}
}
