package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph: an edge
// A -> B means some function acquires B (directly, or transitively through
// a call) while holding A. A cycle in that graph is a deadlock waiting for
// the right interleaving — two goroutines entering the cycle from
// different nodes block each other forever. The analyzer reports every
// cycle once, at its lexicographically smallest witness edge, and also the
// degenerate self-cycle: holding a lock while calling a function that
// (transitively) re-acquires the same lock.
//
// The canonical lock keys come from the summary layer — a field keys by its
// defining type, "kvstore.pipe.mu" — so one lock reached through different
// expressions is one node, and cross-package order inversions are visible
// even though no single function exhibits them.
var LockOrder = &Analyzer{
	Name:  "lockorder",
	Doc:   "reports cycles in the module-wide lock-acquisition-order graph (deadlock risk)",
	Scope: concScope,
	Run:   runLockOrder,
}

// lockEdge is one witnessed acquisition ordering: to was acquired at Pos
// (in Fn) while from was held.
type lockEdge struct {
	from, to string
	fn       *FuncSummary
	pos      token.Pos
	// via names the callee for transitive edges ("" for a direct acquire).
	via string
}

// runLockOrder rebuilds the graph from the whole module's summaries on
// every pass (it is a few hundred edges) and reports the self-deadlocks and
// cycle witnesses that fall in the pass's package.
func runLockOrder(pass *Pass) {
	sums := pass.Summaries()
	var edges []lockEdge
	for _, id := range sums.Order {
		fn := sums.Fns[id]
		for _, ev := range fn.Events {
			switch ev.Kind {
			case EvAcquire:
				for _, held := range ev.Held {
					if held != ev.Key {
						edges = append(edges, lockEdge{from: held, to: ev.Key, fn: fn, pos: ev.Pos})
					}
				}
			case EvCall:
				if ev.Ref || ev.Callee == "" || len(ev.Held) == 0 {
					continue
				}
				callee := sums.Fns[ev.Callee]
				if callee == nil {
					continue
				}
				acq := make([]string, 0, len(callee.TransAcquire))
				for k := range callee.TransAcquire {
					acq = append(acq, k)
				}
				sort.Strings(acq)
				for _, held := range ev.Held {
					for _, k := range acq {
						if held == k {
							// Self-deadlock through a call: report directly,
							// anchored at the call site.
							if fn.Pkg == pass.Package {
								pass.Reportf(ev.Pos,
									"calling %s while holding %s, which %s (transitively) acquires again: guaranteed self-deadlock on a non-reentrant mutex",
									callee.Name, held, callee.Name)
							}
							continue
						}
						edges = append(edges, lockEdge{from: held, to: k, fn: fn, pos: ev.Pos, via: callee.Name})
					}
				}
			}
		}
	}

	// Deduplicate edges by (from, to), keeping the deterministically
	// smallest witness (file, line, col order).
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		pa, pb := a.fn.Pkg.Fset.Position(a.pos), b.fn.Pkg.Fset.Position(b.pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
	adj := map[string][]string{}
	witness := map[[2]string]lockEdge{}
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if _, ok := witness[key]; ok {
			continue
		}
		witness[key] = e
		adj[e.from] = append(adj[e.from], e.to)
	}

	for _, cyc := range lockCycles(adj) {
		// Report once per cycle, anchored at the witness of its first edge
		// (the rotation with the smallest node leads, so this is stable).
		first := witness[[2]string{cyc[0], cyc[1]}]
		if first.fn.Pkg != pass.Package {
			continue
		}
		var steps []string
		for i := 0; i+1 < len(cyc); i++ {
			e := witness[[2]string{cyc[i], cyc[i+1]}]
			p := e.fn.Pkg.Fset.Position(e.pos)
			how := ""
			if e.via != "" {
				how = " via " + e.via
			}
			steps = append(steps, fmt.Sprintf("%s -> %s (%s:%d%s)",
				e.from, e.to, shortFile(p.Filename), p.Line, how))
		}
		pass.Reportf(first.pos,
			"lock-order cycle: %s; goroutines taking these locks in different orders can deadlock", strings.Join(steps, ", "))
	}
}

// lockCycles enumerates elementary cycles in the (tiny) lock graph as node
// sequences [a, b, ..., a], deduplicated by rotating the smallest node to
// the front, in deterministic order.
func lockCycles(adj map[string][]string) [][]string {
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	seen := map[string]bool{}
	var cycles [][]string
	var path []string
	onPath := map[string]bool{}
	var dfs func(start, cur string)
	dfs = func(start, cur string) {
		path = append(path, cur)
		onPath[cur] = true
		for _, next := range adj[cur] {
			if next == start {
				cyc := canonicalCycle(path)
				sig := strings.Join(cyc, "\x00")
				if !seen[sig] {
					seen[sig] = true
					cycles = append(cycles, cyc)
				}
				continue
			}
			if !onPath[next] && next > start {
				// Only explore nodes > start: every cycle is found from its
				// smallest node exactly once.
				dfs(start, next)
			}
		}
		onPath[cur] = false
		path = path[:len(path)-1]
	}
	for _, n := range nodes {
		dfs(n, n)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return strings.Join(cycles[i], "\x00") < strings.Join(cycles[j], "\x00")
	})
	return cycles
}

// canonicalCycle closes path into a cycle rotated so the smallest node
// leads: [b, c, a] -> [a, b, c, a].
func canonicalCycle(path []string) []string {
	min := 0
	for i, n := range path {
		if n < path[min] {
			min = i
		}
	}
	out := make([]string, 0, len(path)+1)
	out = append(out, path[min:]...)
	out = append(out, path[:min]...)
	out = append(out, path[min])
	return out
}

func shortFile(name string) string {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		if j := strings.LastIndex(name[:i], "/"); j >= 0 {
			return name[j+1:]
		}
		return name[i+1:]
	}
	return name
}
