package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline mechanizes the §4.4 rule that the workflow manager's four
// tasks share state "under explicit locking": the WM and the scheduler mix
// blocking locks with nonblocking busy flags, and every past deadlock and
// state-corruption bug in that mix falls into one of two shapes, both
// checked here (the third, a by-value copy of a lock-bearing struct, is
// go vet's copylocks, which runs before this suite):
//
//  1. a mutex Lock() without an Unlock() on some return path (and without
//     a defer) — the classic leaked lock;
//  2. a blocking operation while a mutex is held: channel send/receive,
//     WaitGroup.Wait, time.Sleep, or datastore/network/file I/O — the
//     classic lock-convoy / deadlock seed (callbacks in this codebase are
//     deliberately invoked after Unlock; this analyzer keeps it that way).
//
// The lock-state analysis is intra-procedural and structural: it tracks
// held locks through if/else, switch, select, and loops, merging branch
// states and reporting when paths disagree. Helper functions documented
// as "caller holds mu" are therefore analyzed as lock-neutral, which
// matches the repo's convention.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "flags leaked locks and blocking operations under a held mutex",
	Scope: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/core") ||
			strings.HasSuffix(pkgPath, "internal/sched") ||
			strings.HasSuffix(pkgPath, "internal/faults") ||
			strings.HasSuffix(pkgPath, "internal/kvstore") ||
			strings.HasSuffix(pkgPath, "internal/wmfleet")
	},
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	la := &lockAnalysis{pass: pass}
	for _, f := range pass.Files {
		// Every function body — declarations and literals — is analyzed as
		// an independent unit with an empty initial lock set.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					la.analyzeBody(n.Body)
				}
			case *ast.FuncLit:
				la.analyzeBody(n.Body)
			case *ast.CallExpr:
				if key, op, ok := la.lockOp(n); ok && strings.HasPrefix(op, "Try") {
					la.pass.Reportf(n.Pos(),
						"%s.%s() is untrackable by the structural lock analysis; restructure or annotate //lint:allow lockdiscipline", key, op)
				}
			}
			return true
		})
	}
}

type lockAnalysis struct {
	pass *Pass
}

// heldLock records one acquired mutex.
type heldLock struct {
	pos      token.Pos // acquisition site
	deferred bool      // a defer statement releases it at function exit
}

type lockFacts map[string]*heldLock // canonical receiver expr -> state

func (f lockFacts) clone() lockFacts {
	out := make(lockFacts, len(f))
	for k, v := range f {
		c := *v
		out[k] = &c
	}
	return out
}

// sameHeld reports whether two fact sets hold the same lock keys.
func sameHeld(a, b lockFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func (la *lockAnalysis) analyzeBody(body *ast.BlockStmt) {
	facts, terminated := la.walkStmts(body.List, lockFacts{})
	if !terminated {
		la.checkExit(facts, body.Rbrace, "end of function")
	}
}

// checkExit reports locks still held (and not deferred-released) at a
// function exit point.
func (la *lockAnalysis) checkExit(f lockFacts, pos token.Pos, where string) {
	for key, h := range f {
		if h.deferred {
			continue
		}
		la.pass.Reportf(pos,
			"%s.Lock() (line %d) is still held at %s; unlock on every return path or defer the unlock",
			key, la.pass.Fset.Position(h.pos).Line, where)
	}
}

// walkStmts threads lock facts through a statement list. The returned bool
// reports whether control definitely leaves the list (return, panic,
// branch).
func (la *lockAnalysis) walkStmts(stmts []ast.Stmt, f lockFacts) (lockFacts, bool) {
	for _, s := range stmts {
		var term bool
		f, term = la.walkStmt(s, f)
		if term {
			return f, true
		}
	}
	return f, false
}

func (la *lockAnalysis) walkStmt(s ast.Stmt, f lockFacts) (lockFacts, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, ok := la.lockOp(call); ok {
				la.applyLockOp(f, key, op, call.Pos())
				return f, false
			}
			if isPanic(call) {
				la.scanExpr(s.X, f)
				return f, true
			}
		}
		la.scanExpr(s.X, f)
	case *ast.DeferStmt:
		la.applyDefer(f, s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			la.scanExpr(r, f)
		}
		la.checkExit(f, s.Return, "this return")
		return f, true
	case *ast.BranchStmt:
		// break/continue/goto transfer control; treat as list-terminating
		// without an exit check (loop analysis re-checks invariance).
		return f, true
	case *ast.IfStmt:
		if s.Init != nil {
			f, _ = la.walkStmt(s.Init, f)
		}
		la.scanExpr(s.Cond, f)
		branches := make([]branchResult, 0, 2)
		thenF, thenT := la.walkStmts(s.Body.List, f.clone())
		branches = append(branches, branchResult{thenF, thenT})
		if s.Else != nil {
			elseF, elseT := la.walkStmt(s.Else, f.clone())
			branches = append(branches, branchResult{elseF, elseT})
		} else {
			branches = append(branches, branchResult{f, false})
		}
		return la.merge(branches, s.If, "if/else")
	case *ast.BlockStmt:
		return la.walkStmts(s.List, f)
	case *ast.LabeledStmt:
		return la.walkStmt(s.Stmt, f)
	case *ast.SwitchStmt:
		if s.Init != nil {
			f, _ = la.walkStmt(s.Init, f)
		}
		if s.Tag != nil {
			la.scanExpr(s.Tag, f)
		}
		return la.walkCases(s.Body, f, s.Switch, "switch")
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f, _ = la.walkStmt(s.Init, f)
		}
		return la.walkCases(s.Body, f, s.Switch, "type switch")
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil && len(f) > 0 {
				la.reportBlocking(cc.Comm.Pos(), f, "select communication")
			}
		}
		return la.walkCases(s.Body, f, s.Select, "select")
	case *ast.ForStmt:
		if s.Init != nil {
			f, _ = la.walkStmt(s.Init, f)
		}
		if s.Cond != nil {
			la.scanExpr(s.Cond, f)
		}
		bodyF, _ := la.walkStmts(s.Body.List, f.clone())
		if !sameHeld(f, bodyF) {
			la.pass.Reportf(s.For,
				"lock state changes across a loop iteration (held: entry %s vs body-exit %s); lock and unlock must balance within the body",
				heldKeys(f), heldKeys(bodyF))
		}
		return f, false
	case *ast.RangeStmt:
		if t := la.pass.TypeOf(s.X); t != nil && len(f) > 0 {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				la.reportBlocking(s.For, f, "range over channel")
			}
		}
		la.scanExpr(s.X, f)
		bodyF, _ := la.walkStmts(s.Body.List, f.clone())
		if !sameHeld(f, bodyF) {
			la.pass.Reportf(s.For,
				"lock state changes across a loop iteration (held: entry %s vs body-exit %s); lock and unlock must balance within the body",
				heldKeys(f), heldKeys(bodyF))
		}
		return f, false
	case *ast.SendStmt:
		if len(f) > 0 {
			la.reportBlocking(s.Arrow, f, "channel send")
		}
		la.scanExpr(s.Value, f)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			la.scanExpr(e, f)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						la.scanExpr(v, f)
					}
				}
			}
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			la.scanExpr(a, f)
		}
	case *ast.IncDecStmt, *ast.EmptyStmt:
	}
	return f, false
}

type branchResult struct {
	facts lockFacts
	term  bool
}

// merge combines branch outcomes: terminated branches drop out; surviving
// branches must agree on the held-lock set, else the divergence itself is
// the bug.
func (la *lockAnalysis) merge(branches []branchResult, pos token.Pos, what string) (lockFacts, bool) {
	var live []lockFacts
	for _, b := range branches {
		if !b.term {
			live = append(live, b.facts)
		}
	}
	if len(live) == 0 {
		return lockFacts{}, true
	}
	for _, f := range live[1:] {
		if !sameHeld(live[0], f) {
			la.pass.Reportf(pos,
				"%s branches disagree on held locks (%s vs %s); every path must leave the same locks held",
				what, heldKeys(live[0]), heldKeys(f))
			break
		}
	}
	return live[0], false
}

func (la *lockAnalysis) walkCases(body *ast.BlockStmt, f lockFacts, pos token.Pos, what string) (lockFacts, bool) {
	var branches []branchResult
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cc.Body
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		bf, bt := la.walkStmts(stmts, f.clone())
		branches = append(branches, branchResult{bf, bt})
	}
	if !hasDefault {
		// No default: the zero-case fall-through path keeps the entry state.
		branches = append(branches, branchResult{f, false})
	}
	return la.merge(branches, pos, what)
}

func heldKeys(f lockFacts) string {
	if len(f) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	// Deterministic message text regardless of map order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return "{" + strings.Join(keys, ",") + "}"
}

// ---------------------------------------------------------------------------
// Lock operations

// lockOp recognizes X.Lock / X.RLock / X.Unlock / X.RUnlock where the
// method belongs to sync.Mutex or sync.RWMutex (directly or promoted from
// an embedded field), returning a canonical key for X.
func (la *lockAnalysis) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	fn, isFn := la.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func (la *lockAnalysis) applyLockOp(f lockFacts, key, op string, pos token.Pos) {
	switch op {
	case "Lock", "RLock":
		if h, held := f[key]; held {
			la.pass.Reportf(pos, "%s.%s() while already holding %s (line %d): self-deadlock",
				key, op, key, la.pass.Fset.Position(h.pos).Line)
			return
		}
		f[key] = &heldLock{pos: pos}
	case "Unlock", "RUnlock":
		if _, held := f[key]; !held {
			la.pass.Reportf(pos, "%s.%s() without a tracked %s.Lock() on this path", key, op, key)
			return
		}
		delete(f, key)
	case "TryLock", "TryRLock":
		// Reported by the global sweep in runLockDiscipline: the result is
		// a bool the structural analysis cannot track.
	}
}

// applyDefer handles `defer X.Unlock()` and `defer func() { ... X.Unlock() ... }()`.
func (la *lockAnalysis) applyDefer(f lockFacts, d *ast.DeferStmt) {
	if key, op, ok := la.lockOp(d.Call); ok {
		if op == "Unlock" || op == "RUnlock" {
			if h, held := f[key]; held {
				h.deferred = true
			}
		}
		return
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := la.lockOp(call); ok && (op == "Unlock" || op == "RUnlock") {
					if h, held := f[key]; held {
						h.deferred = true
					}
				}
			}
			return true
		})
	}
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ---------------------------------------------------------------------------
// Blocking operations under a held lock

// scanExpr looks for blocking operations inside an expression evaluated
// while locks are held. FuncLit bodies are skipped: they are separate
// analysis units and do not execute at evaluation time.
func (la *lockAnalysis) scanExpr(e ast.Expr, f lockFacts) {
	if len(f) == 0 {
		// Still need to find nothing — no locks held means nothing to flag.
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				la.reportBlocking(n.OpPos, f, "channel receive")
			}
		case *ast.CallExpr:
			if why := la.blockingCall(n); why != "" {
				la.reportBlocking(n.Pos(), f, why)
			}
		}
		return true
	})
}

// blockingCall classifies calls that can block or perform I/O. Returns a
// human-readable reason, or "".
func (la *lockAnalysis) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := la.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "sync" && name == "Wait":
		// WaitGroup.Wait blocks; Cond.Wait requires the mutex by contract
		// and is exempt.
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
			strings.Contains(recv.Type().String(), "WaitGroup") {
			return "sync.WaitGroup.Wait"
		}
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network I/O (" + path + "." + name + ")"
	case strings.HasSuffix(path, "internal/datastore") || strings.HasSuffix(path, "internal/kvstore"):
		// Calls into the storage layer from outside it are RPCs/disk ops.
		// Calls between functions of the same package are local helpers —
		// whether one of those transitively blocks is the interprocedural
		// channeldiscipline analyzer's job, not this per-call heuristic's.
		if la.pass.Pkg != nil && fn.Pkg().Path() == la.pass.Pkg.Path() {
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

func (la *lockAnalysis) reportBlocking(pos token.Pos, f lockFacts, what string) {
	la.pass.Reportf(pos,
		"%s while holding %s: blocking operations under a mutex stall every other workflow task (§4.4); release the lock first",
		what, heldKeys(f))
}
