package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// This file is the shared interprocedural layer under the concurrency
// analyzers (lockdiscipline, lockorder, goroutinelifecycle). It builds, at
// most once per lint run, a module-wide set of per-function summaries —
// which locks a function acquires, which channels it sends on / receives
// from / closes, which goroutines it spawns, which WaitGroups it touches,
// which blocking calls it makes — threaded through the package's one
// branch-aware lock-state walk, which tracks the set of mutexes held at
// every event and records where that state is malformed (a lock leaked past
// a return, branches that disagree, a loop body that does not balance). A
// static call graph (direct calls and method calls resolved through
// go/types; function values and interface calls are opaque) links the
// summaries, and a fixpoint propagates two facts across it:
//
//   - TransAcquire: the locks a function may acquire directly or through
//     any chain of module-internal calls — the input to the lock-order
//     graph;
//   - TransChanOp: whether a call reaches a blocking channel operation or
//     WaitGroup.Wait — the input to lockdiscipline's through-a-callee rule.
//
// Held-lock facts are keyed by the lock *expression* (`src.mu` and `dst.mu`
// of one type are two locks), but every event is stamped with canonical
// identities: `s.mu` in one package and `c.shard.mu` in another both
// resolve to "kvstore.shardConn.mu" when the field is the same, which is
// what lets summaries compose across packages. Struct fields are keyed by
// their defining type; package-level vars by package; locals and parameters
// by declaration site (so a closure capturing its parent's channel shares
// the parent's key).
//
// The walk is deliberately approximate in the direction that keeps this
// repo's conventions checkable: branches whose every path terminates drop
// out of the merged state (so `mu.Lock(); if x { mu.Unlock(); return }` is
// still "held" afterwards), surviving branches that disagree are a finding
// and continue as their union, helpers documented "caller holds mu" are
// lock-neutral, and function literals that are merely passed as values
// contribute to the call graph for lifecycle evidence but not to lock
// propagation (callbacks in this codebase run after Unlock by convention).

// FuncID names one analysis unit: (*types.Func).FullName for declared
// functions and methods, parent$litN for function literals.
type FuncID string

// EventKind classifies one summary event.
type EventKind int

// Event kinds recorded by the summary walker.
const (
	EvCall    EventKind = iota // module-internal call (Callee set)
	EvAcquire                  // mutex Lock/RLock (Key = lock key)
	EvSend                     // channel send (Key = channel key)
	EvRecv                     // channel receive, range, or select comm
	EvClose                    // close(ch)
	EvSpawn                    // go statement (Callee = spawned unit or "")
	EvWGWait                   // WaitGroup.Wait (Key = wg key) — blocks
	EvBlock                    // sleep or network/datastore/file I/O (Ext = which)
)

// Event is one recorded operation with the lock context it happens under.
type Event struct {
	Kind   EventKind
	Pos    token.Pos
	Key    string   // lock / channel / waitgroup key
	Callee FuncID   // for EvCall and EvSpawn ("" = unresolvable/external)
	Ext    string   // display name of an external callee or blocking call
	Held   []string // sorted canonical keys of the locks held at this event
	// NonBlocking marks sends/receives inside a select that has a default
	// clause — they cannot stall the goroutine.
	NonBlocking bool
	// Ref marks EvCall edges to function literals that are only passed as
	// values (callbacks): part of the call graph for lifecycle evidence,
	// excluded from lock propagation.
	Ref bool
}

// LockFinding is one malformed lock state the walk met in a function;
// lockdiscipline reports them for the packages in its scope.
type LockFinding struct {
	Pos token.Pos
	Msg string
}

// FuncSummary is the interprocedural fact sheet of one function or literal.
type FuncSummary struct {
	ID           FuncID
	Name         string // human-readable ("(*kvstore.pipe).writeLoop", "...$1")
	Pkg          *Package
	Pos          token.Pos
	Events       []Event
	LockFindings []LockFinding

	WGDone    map[string]bool // WaitGroup.Done called (incl. deferred)
	WGWait    map[string]bool // WaitGroup.Wait called
	RecvKeys  map[string]bool // channels received from ("#ctx" = ctx.Done)
	CloseKeys map[string]bool // channels closed (incl. deferred)

	// Fixpoint results (BuildSummaries fills these in):
	TransAcquire map[string]token.Pos // locks acquired transitively
	TransChanOp  *Event               // a blocking chan op or Wait reachable via calls
}

// Summaries is the module-wide index the concurrency analyzers query.
type Summaries struct {
	Fns   map[FuncID]*FuncSummary
	Order []FuncID // deterministic iteration order

	ChanClosers map[string][]*FuncSummary // channel key -> closing functions
	ChanRecvers map[string][]*FuncSummary
	WGWaiters   map[string][]*FuncSummary // waitgroup key -> waiting functions

	byPkg    map[*Package][]*FuncSummary
	pkgPaths map[string]bool // import paths of the loaded packages
}

// In returns the summaries of pkg's functions and literals, in Order.
func (s *Summaries) In(pkg *Package) []*FuncSummary { return s.byPkg[pkg] }

// BuildSummaries walks every package and computes the fixpoints. pkgs must
// be type-checked; order does not matter.
func BuildSummaries(pkgs []*Package) *Summaries {
	s := &Summaries{
		Fns:         map[FuncID]*FuncSummary{},
		ChanClosers: map[string][]*FuncSummary{},
		ChanRecvers: map[string][]*FuncSummary{},
		WGWaiters:   map[string][]*FuncSummary{},
		byPkg:       map[*Package][]*FuncSummary{},
		pkgPaths:    map[string]bool{},
	}
	for _, pkg := range pkgs {
		s.pkgPaths[pkg.ImportPath] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b := &sumBuilder{sums: s, pkg: pkg, walked: map[*ast.FuncLit]bool{}}
				id, name := declID(pkg, fd)
				b.walkFunc(id, name, fd.Name.Pos(), fd.Body)
			}
		}
	}
	s.index()
	s.fixpoint()
	return s
}

// declID derives the FuncID and display name of a declared function.
func declID(pkg *Package, fd *ast.FuncDecl) (FuncID, string) {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		full := obj.FullName()
		return FuncID(full), shortName(full)
	}
	// Unresolvable (init funcs resolve fine; this is a safety net).
	return FuncID(pkg.ImportPath + "." + fd.Name.Name), filepath.Base(pkg.ImportPath) + "." + fd.Name.Name
}

// shortName compresses a FullName for human output: the module prefix of
// every import path is dropped ("(*mummi/internal/kvstore.pipe).writeLoop"
// -> "(*kvstore.pipe).writeLoop").
func shortName(full string) string {
	out := full
	for {
		i := strings.Index(out, "internal/")
		if i < 0 {
			return out
		}
		// Strip everything from the start of the path segment to internal/.
		j := i
		for j > 0 && out[j-1] != '(' && out[j-1] != '*' && out[j-1] != ' ' && out[j-1] != ',' {
			j--
		}
		out = out[:j] + out[i+len("internal/"):]
	}
}

// index fills the module-wide reverse maps after all walks.
func (s *Summaries) index() {
	for id := range s.Fns {
		s.Order = append(s.Order, id)
	}
	sort.Slice(s.Order, func(i, j int) bool { return s.Order[i] < s.Order[j] })
	for _, id := range s.Order {
		fn := s.Fns[id]
		s.byPkg[fn.Pkg] = append(s.byPkg[fn.Pkg], fn)
		for k := range fn.RecvKeys {
			s.ChanRecvers[k] = append(s.ChanRecvers[k], fn)
		}
		for k := range fn.CloseKeys {
			s.ChanClosers[k] = append(s.ChanClosers[k], fn)
		}
		for k := range fn.WGWait {
			s.WGWaiters[k] = append(s.WGWaiters[k], fn)
		}
	}
}

// fixpoint propagates TransAcquire and TransChanOp over the call graph
// until stable. The graph is small (one node per function in the module) so
// a simple iterate-until-quiet loop is plenty.
func (s *Summaries) fixpoint() {
	for _, id := range s.Order {
		fn := s.Fns[id]
		fn.TransAcquire = map[string]token.Pos{}
		for i := range fn.Events {
			switch ev := &fn.Events[i]; ev.Kind {
			case EvAcquire:
				if _, ok := fn.TransAcquire[ev.Key]; !ok {
					fn.TransAcquire[ev.Key] = ev.Pos
				}
			case EvSend, EvRecv, EvWGWait:
				// All three block indefinitely on another goroutine's
				// progress; any of them reached under a held lock is a
				// deadlock surface.
				if !ev.NonBlocking && fn.TransChanOp == nil {
					fn.TransChanOp = ev
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range s.Order {
			fn := s.Fns[id]
			for _, ev := range fn.Events {
				if ev.Kind != EvCall || ev.Ref {
					continue
				}
				callee := s.Fns[ev.Callee]
				if callee == nil {
					continue
				}
				for k := range callee.TransAcquire {
					if _, ok := fn.TransAcquire[k]; !ok {
						// Attribute the transitive acquisition to the call site.
						fn.TransAcquire[k] = ev.Pos
						changed = true
					}
				}
				if fn.TransChanOp == nil && callee.TransChanOp != nil {
					fn.TransChanOp = callee.TransChanOp
					changed = true
				}
			}
		}
	}
}

// CalleeClosure returns the summaries reachable from id through call,
// spawn, and reference edges, within depth hops — the evidence-search
// neighborhood for goroutinelifecycle.
func (s *Summaries) CalleeClosure(id FuncID, depth int) []*FuncSummary {
	seen := map[FuncID]bool{}
	var out []*FuncSummary
	var visit func(FuncID, int)
	visit = func(cur FuncID, d int) {
		if seen[cur] || d < 0 {
			return
		}
		seen[cur] = true
		fn := s.Fns[cur]
		if fn == nil {
			return
		}
		out = append(out, fn)
		for _, ev := range fn.Events {
			if (ev.Kind == EvCall || ev.Kind == EvSpawn) && ev.Callee != "" {
				visit(ev.Callee, d-1)
			}
		}
	}
	visit(id, depth)
	return out
}

// ---------------------------------------------------------------------------
// The walker

// sumBuilder walks one declared function (and, recursively, its literals),
// producing summaries. It is the only lock-state walk in the package: every
// interesting operation is recorded as an Event with the held set at that
// point, and every malformed lock state as a LockFinding.
type sumBuilder struct {
	sums *Summaries
	pkg  *Package

	cur    *FuncSummary
	nLit   int
	parent FuncID // enclosing unit while walking a literal
	// walked prevents double-walking literals that a parent construct
	// (call, defer, go) already analyzed before ast.Inspect descends.
	walked map[*ast.FuncLit]bool
}

// heldLock records one acquired mutex.
type heldLock struct {
	key      string    // canonical identity ("pkg.Type.field"), lockorder's node
	pos      token.Pos // acquisition site
	deferred bool      // a defer statement releases it at function exit
}

// lockFacts is the walk's state: lock expression ("c.mu") -> held lock.
type lockFacts map[string]*heldLock

func (f lockFacts) clone() lockFacts {
	out := make(lockFacts, len(f))
	for k, v := range f {
		c := *v
		out[k] = &c
	}
	return out
}

// union returns f plus the locks only g holds.
func (f lockFacts) union(g lockFacts) lockFacts {
	out := f.clone()
	for k, v := range g {
		if _, ok := out[k]; !ok {
			c := *v
			out[k] = &c
		}
	}
	return out
}

// same reports whether two fact sets hold the same lock expressions.
func (f lockFacts) same(g lockFacts) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if _, ok := g[k]; !ok {
			return false
		}
	}
	return true
}

// String lists the held lock expressions, sorted, for messages.
func (f lockFacts) String() string {
	exprs := make([]string, 0, len(f))
	for k := range f {
		exprs = append(exprs, k)
	}
	sort.Strings(exprs)
	return "{" + strings.Join(exprs, ",") + "}"
}

// held returns the sorted canonical keys of the held locks (two held
// instances of one type are one key).
func (f lockFacts) held() []string {
	var out []string
	for _, h := range f {
		out = append(out, h.key)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// walkFunc creates the summary for one unit and walks its body from an
// empty lock set.
func (b *sumBuilder) walkFunc(id FuncID, name string, pos token.Pos, body *ast.BlockStmt) {
	prev, prevParent, prevN := b.cur, b.parent, b.nLit
	b.cur = &FuncSummary{
		ID: id, Name: name, Pkg: b.pkg, Pos: pos,
		WGDone:    map[string]bool{},
		WGWait:    map[string]bool{},
		RecvKeys:  map[string]bool{},
		CloseKeys: map[string]bool{},
	}
	b.parent, b.nLit = id, 0
	b.sums.Fns[id] = b.cur
	if f, term := b.walkStmts(body.List, lockFacts{}); !term {
		b.checkExit(f, body.Rbrace, "end of function")
	}
	b.cur, b.parent, b.nLit = prev, prevParent, prevN
}

func (b *sumBuilder) emit(ev Event, f lockFacts) {
	ev.Held = f.held()
	b.cur.Events = append(b.cur.Events, ev)
}

func (b *sumBuilder) findf(pos token.Pos, format string, args ...any) {
	b.cur.LockFindings = append(b.cur.LockFindings, LockFinding{pos, fmt.Sprintf(format, args...)})
}

func (b *sumBuilder) line(pos token.Pos) int { return b.pkg.Fset.Position(pos).Line }

// checkExit records locks still held (and not deferred-released) at a
// function exit point.
func (b *sumBuilder) checkExit(f lockFacts, pos token.Pos, where string) {
	for expr, h := range f {
		if !h.deferred {
			b.findf(pos, "%s.Lock() (line %d) is still held at %s; unlock on every return path or defer the unlock",
				expr, b.line(h.pos), where)
		}
	}
}

// walkStmts threads facts through a list; the bool reports whether control
// definitely leaves the list (return, panic, branch).
func (b *sumBuilder) walkStmts(stmts []ast.Stmt, f lockFacts) (lockFacts, bool) {
	for _, s := range stmts {
		var term bool
		f, term = b.walkStmt(s, f)
		if term {
			return f, true
		}
	}
	return f, false
}

func (b *sumBuilder) walkStmt(s ast.Stmt, f lockFacts) (lockFacts, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if expr, op, ok := b.lockOp(call); ok && !strings.HasPrefix(op, "Try") {
				b.applyLock(f, expr, op, call)
				return f, false
			}
			if isBuiltin(call, "panic") {
				b.scanExpr(s.X, f)
				return f, true
			}
		}
		b.scanExpr(s.X, f)
	case *ast.DeferStmt:
		b.applyDefer(f, s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.scanExpr(r, f)
		}
		b.checkExit(f, s.Return, "this return")
		return f, true
	case *ast.BranchStmt:
		// break/continue/goto transfer control; treat as list-terminating
		// without an exit check (the loop check re-examines balance).
		return f, true
	case *ast.IfStmt:
		if s.Init != nil {
			f, _ = b.walkStmt(s.Init, f)
		}
		b.scanExpr(s.Cond, f)
		thenF, thenT := b.walkStmts(s.Body.List, f.clone())
		branches := []branch{{thenF, thenT}, {f, false}}
		if s.Else != nil {
			elseF, elseT := b.walkStmt(s.Else, f.clone())
			branches[1] = branch{elseF, elseT}
		}
		return b.merge(branches, s.If, "if/else")
	case *ast.BlockStmt:
		return b.walkStmts(s.List, f)
	case *ast.LabeledStmt:
		return b.walkStmt(s.Stmt, f)
	case *ast.SwitchStmt:
		if s.Init != nil {
			f, _ = b.walkStmt(s.Init, f)
		}
		b.scanExpr(s.Tag, f)
		return b.walkCases(s.Body, f, s.Switch, "switch")
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f, _ = b.walkStmt(s.Init, f)
		}
		return b.walkCases(s.Body, f, s.Switch, "type switch")
	case *ast.SelectStmt:
		return b.walkCases(s.Body, f, s.Select, "select")
	case *ast.ForStmt:
		if s.Init != nil {
			f, _ = b.walkStmt(s.Init, f)
		}
		b.scanExpr(s.Cond, f)
		return b.walkLoop(s.Body, f, s.For), false
	case *ast.RangeStmt:
		if t := b.pkg.Info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				b.recordRecv(s.X, s.For, f, false)
			}
		}
		b.scanExpr(s.X, f)
		return b.walkLoop(s.Body, f, s.For), false
	case *ast.SendStmt:
		b.recordSend(s, f, false)
		b.scanExpr(s.Value, f)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			b.scanExpr(e, f)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						b.scanExpr(v, f)
					}
				}
			}
		}
	case *ast.GoStmt:
		b.recordSpawn(s, f)
	case *ast.IncDecStmt, *ast.EmptyStmt:
	}
	return f, false
}

type branch struct {
	facts lockFacts
	term  bool
}

// merge combines branch outcomes: terminated branches drop out; surviving
// branches must agree on the held-lock set, else the divergence itself is
// the bug — recorded once, after which the walk carries on with the union.
func (b *sumBuilder) merge(branches []branch, pos token.Pos, what string) (lockFacts, bool) {
	var out lockFacts
	agree := true
	for _, br := range branches {
		switch {
		case br.term:
		case out == nil:
			out = br.facts
		default:
			if agree && !out.same(br.facts) {
				agree = false
				b.findf(pos, "%s branches disagree on held locks (%s vs %s); every path must leave the same locks held",
					what, out, br.facts)
			}
			out = out.union(br.facts)
		}
	}
	if out == nil {
		return lockFacts{}, true
	}
	return out, false
}

// walkCases walks the clauses of a switch, type switch, or select. A select
// communication is recorded under the entry facts, non-blocking when the
// select has a default clause.
func (b *sumBuilder) walkCases(body *ast.BlockStmt, f lockFacts, pos token.Pos, what string) (lockFacts, bool) {
	hasDefault := false
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || cc.List == nil
		case *ast.CommClause:
			hasDefault = hasDefault || cc.Comm == nil
		}
	}
	var branches []branch
	for _, c := range body.List {
		var stmts []ast.Stmt
		cf := f.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
		case *ast.CommClause:
			stmts = cc.Body
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				b.recordSend(comm, cf, hasDefault)
			case *ast.ExprStmt:
				b.recordRecvExpr(comm.X, cf, hasDefault)
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					b.recordRecvExpr(rhs, cf, hasDefault)
				}
			}
		}
		bf, bt := b.walkStmts(stmts, cf)
		branches = append(branches, branch{bf, bt})
	}
	if !hasDefault {
		// No default: the zero-case fall-through path keeps the entry state.
		branches = append(branches, branch{f, false})
	}
	return b.merge(branches, pos, what)
}

// walkLoop walks a loop body once: lock and unlock must balance within it.
func (b *sumBuilder) walkLoop(body *ast.BlockStmt, f lockFacts, pos token.Pos) lockFacts {
	bodyF, _ := b.walkStmts(body.List, f.clone())
	if !f.same(bodyF) {
		b.findf(pos, "lock state changes across a loop iteration (held: entry %s vs body-exit %s); lock and unlock must balance within the body",
			f, bodyF)
	}
	return f.union(bodyF)
}

func (b *sumBuilder) recordSend(s *ast.SendStmt, f lockFacts, nonBlocking bool) {
	b.emit(Event{Kind: EvSend, Pos: s.Arrow, Key: b.exprKey(s.Chan), NonBlocking: nonBlocking}, f)
}

// recordRecvExpr registers `<-ch` appearing as a select communication.
func (b *sumBuilder) recordRecvExpr(e ast.Expr, f lockFacts, nonBlocking bool) {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		b.recordRecv(ue.X, ue.OpPos, f, nonBlocking)
	}
}

// recordRecv registers a receive from ch; <-ctx.Done() maps to "#ctx".
func (b *sumBuilder) recordRecv(ch ast.Expr, pos token.Pos, f lockFacts, nonBlocking bool) {
	key := b.exprKey(ch)
	if call, ok := ast.Unparen(ch).(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if fn, ok := b.pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "context" {
				key = "#ctx"
			}
		}
	}
	b.cur.RecvKeys[key] = true
	b.emit(Event{Kind: EvRecv, Pos: pos, Key: key, NonBlocking: nonBlocking}, f)
}

// recordSpawn registers a go statement and resolves its target.
func (b *sumBuilder) recordSpawn(s *ast.GoStmt, f lockFacts) {
	for _, a := range s.Call.Args {
		b.scanExpr(a, f)
	}
	if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		b.emit(Event{Kind: EvSpawn, Pos: s.Go, Callee: b.walkLit(fl)}, f)
		return
	}
	id, ext := b.resolveCallee(s.Call)
	b.emit(Event{Kind: EvSpawn, Pos: s.Go, Callee: id, Ext: ext}, f)
}

// walkLit analyzes a function literal as its own unit (empty entry facts)
// and returns its FuncID.
func (b *sumBuilder) walkLit(fl *ast.FuncLit) FuncID {
	b.walked[fl] = true
	b.nLit++
	litID := FuncID(fmt.Sprintf("%s$%d", b.parent, b.nLit))
	name := fmt.Sprintf("%s$%d", b.cur.Name, b.nLit)
	parentCur, parentN := b.cur, b.nLit
	b.walkFunc(litID, name, fl.Pos(), fl.Body)
	b.cur, b.nLit = parentCur, parentN
	return litID
}

// applyDefer: a deferred unlock (bare, or inside a deferred literal) keeps
// the lock "held" for the remainder of the body (it really is) and excuses
// it at exit; deferred Done/close are recorded as end-of-function facts;
// other deferred calls become lock-free call edges (they run at return,
// usually after unlocks).
func (b *sumBuilder) applyDefer(f lockFacts, d *ast.DeferStmt) {
	deferUnlock := func(call *ast.CallExpr) bool {
		expr, op, ok := b.lockOp(call)
		if h := f[expr]; ok && h != nil && (op == "Unlock" || op == "RUnlock") {
			h.deferred = true
		}
		return ok
	}
	if deferUnlock(d.Call) {
		return
	}
	for _, a := range d.Call.Args {
		b.scanExpr(a, f)
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				deferUnlock(call)
			}
			return true
		})
		b.emit(Event{Kind: EvCall, Pos: d.Call.Pos(), Callee: b.walkLit(fl)}, nil)
		return
	}
	b.recordCall(d.Call, nil)
}

// scanExpr records calls, receives, and literals inside an expression
// evaluated under facts f.
func (b *sumBuilder) scanExpr(e ast.Expr, f lockFacts) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !b.walked[n] {
				// Passed or assigned, not invoked here: reference edge only.
				b.emit(Event{Kind: EvCall, Pos: n.Pos(), Callee: b.walkLit(n), Ref: true}, f)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				b.recordRecv(n.X, n.OpPos, f, false)
			}
		case *ast.CallExpr:
			b.recordCall(n, f)
		}
		return true
	})
}

// recordCall classifies one call expression: lock ops are handled by the
// statement walker (they mutate facts); everything else becomes events.
func (b *sumBuilder) recordCall(call *ast.CallExpr, f lockFacts) {
	if expr, op, ok := b.lockOp(call); ok {
		if strings.HasPrefix(op, "Try") {
			b.findf(call.Pos(), "%s.%s() is untrackable by the structural lock analysis; restructure or annotate //lint:allow lockdiscipline", expr, op)
		}
		return
	}
	if key, op, ok := b.wgOp(call); ok {
		if op == "Done" {
			b.cur.WGDone[key] = true
		} else {
			b.cur.WGWait[key] = true
			b.emit(Event{Kind: EvWGWait, Pos: call.Pos(), Key: key}, f)
		}
		return
	}
	if isBuiltin(call, "close") && len(call.Args) == 1 {
		key := b.exprKey(call.Args[0])
		b.cur.CloseKeys[key] = true
		b.emit(Event{Kind: EvClose, Pos: call.Pos(), Key: key}, f)
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: real call edge under current facts.
		b.emit(Event{Kind: EvCall, Pos: call.Pos(), Callee: b.walkLit(fl)}, f)
		return
	}
	if why := b.blockingCall(call); why != "" {
		b.emit(Event{Kind: EvBlock, Pos: call.Pos(), Ext: why}, f)
	}
	if id, _ := b.resolveCallee(call); id != "" {
		b.emit(Event{Kind: EvCall, Pos: call.Pos(), Callee: id}, f)
	}
}

// resolveCallee maps a call to a module-internal FuncID, or an external
// display name.
func (b *sumBuilder) resolveCallee(call *ast.CallExpr) (FuncID, string) {
	fn := b.calledFunc(call)
	if fn == nil {
		return "", ""
	}
	if fn.Pkg() != nil && b.sums.pkgPaths[fn.Pkg().Path()] {
		return FuncID(fn.FullName()), ""
	}
	return "", fn.FullName()
}

// calledFunc returns the declared function or method a call names, nil for
// function values, conversions, and builtins.
func (b *sumBuilder) calledFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = b.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = b.pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ---------------------------------------------------------------------------
// Operation classifiers

// syncMethod recognizes a call of one of the named methods of a sync type
// (directly or promoted from an embedded field), returning the receiver
// expression and the resolved method.
func (b *sumBuilder) syncMethod(call *ast.CallExpr, names ...string) (ast.Expr, *types.Func) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	for _, name := range names {
		if sel.Sel.Name == name {
			if fn, ok := b.pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				return sel.X, fn
			}
		}
	}
	return nil, nil
}

// lockOp recognizes mutex Lock/RLock/Unlock/RUnlock and the Try variants,
// returning the lock expression as written ("c.mu").
func (b *sumBuilder) lockOp(call *ast.CallExpr) (expr, op string, ok bool) {
	x, fn := b.syncMethod(call, "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock")
	if fn == nil {
		return "", "", false
	}
	return types.ExprString(x), fn.Name(), true
}

func (b *sumBuilder) applyLock(f lockFacts, expr, op string, call *ast.CallExpr) {
	switch op {
	case "Lock", "RLock":
		if h := f[expr]; h != nil {
			b.findf(call.Pos(), "%s.%s() while already holding %s (line %d): self-deadlock", expr, op, expr, b.line(h.pos))
			return
		}
		key := b.exprKey(call.Fun.(*ast.SelectorExpr).X)
		b.emit(Event{Kind: EvAcquire, Pos: call.Pos(), Key: key}, f)
		f[expr] = &heldLock{key: key, pos: call.Pos()}
	case "Unlock", "RUnlock":
		if f[expr] == nil {
			b.findf(call.Pos(), "%s.%s() without a tracked %s.Lock() on this path", expr, op, expr)
			return
		}
		delete(f, expr)
	}
}

// wgOp recognizes WaitGroup Done/Wait (Cond.Wait requires the mutex by
// contract and is not a WaitGroup op).
func (b *sumBuilder) wgOp(call *ast.CallExpr) (key, op string, ok bool) {
	x, fn := b.syncMethod(call, "Done", "Wait")
	if fn == nil {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !strings.Contains(recv.Type().String(), "WaitGroup") {
		return "", "", false
	}
	return b.exprKey(x), fn.Name(), true
}

// blockingCall classifies calls that sleep or perform I/O. Returns a
// human-readable reason, or "".
func (b *sumBuilder) blockingCall(call *ast.CallExpr) string {
	fn := b.calledFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network I/O (" + path + "." + name + ")"
	case strings.HasSuffix(path, "internal/datastore") || strings.HasSuffix(path, "internal/kvstore"):
		// Calls into the storage layer from outside it are RPCs/disk ops.
		// Calls between functions of the same package are local helpers —
		// whether one of those transitively blocks is TransChanOp's job, not
		// this per-call heuristic's.
		if path == b.pkg.ImportPath {
			return ""
		}
		return "datastore I/O (" + name + ")"
	case path == "os" && isFileIO(name):
		return "file I/O (os." + name + ")"
	}
	return ""
}

func isFileIO(name string) bool {
	switch name {
	case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove",
		"RemoveAll", "Rename", "Mkdir", "MkdirAll", "Stat", "ReadDir":
		return true
	}
	return false
}

func isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name
}

// ---------------------------------------------------------------------------
// Canonical keys

// exprKey canonicalizes the identity of a lock, channel, or WaitGroup
// expression so that summaries compose across functions and packages.
// Struct fields key by defining type ("kvstore.pipe.reqCh"), package-level
// vars by package, locals and params by declaration site.
func (b *sumBuilder) exprKey(e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if base := b.pkg.Info.TypeOf(e.X); base != nil {
			if k := typeFieldKey(base, e.Sel.Name); k != "" {
				return k
			}
		}
		return types.ExprString(e)
	case *ast.Ident:
		obj := b.pkg.Info.Uses[e]
		if obj == nil {
			obj = b.pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			// Declaration-site key: a closure capturing its parent's local
			// resolves the same *types.Var, hence the same key.
			pos := b.pkg.Fset.Position(v.Pos())
			return fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, v.Name())
		}
		return e.Name
	case *ast.StarExpr:
		return b.exprKey(e.X)
	case *ast.IndexExpr:
		return b.exprKey(e.X) + "[]"
	}
	return types.ExprString(e)
}

// typeFieldKey keys a field of a named struct type: "pkg.Type.field". The
// selector may also be a method or promoted field; those key to the type
// too. Returns "" if the base type is not a named struct.
func typeFieldKey(base types.Type, field string) string {
	for {
		p, ok := base.(*types.Pointer)
		if !ok {
			break
		}
		base = p.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok {
		return ""
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return ""
	}
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	return pkg + obj.Name() + "." + field
}
