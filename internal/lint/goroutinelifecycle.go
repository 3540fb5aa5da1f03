package lint

import (
	"sort"
	"strings"
)

// concScope is the shared reporting scope of the three concurrency
// analyzers (lockdiscipline, lockorder, goroutinelifecycle): the packages
// that hold a mutex or start a goroutine — the store client and server, the
// telemetry registry and its HTTP endpoint, the feedback managers' worker
// pool and the selector's worker pool. The coordination layers are not
// here: they run on one goroutine and scripts/ci.sh forbids them sync and
// go statements. Summaries still cover the whole module, so facts flow
// through unscoped packages even though findings are not anchored there.
func concScope(pkgPath string) bool {
	for _, suffix := range []string{
		"internal/kvstore", "internal/telemetry", "internal/feedback", "internal/parallel",
	} {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// GoroutineLifecycle requires every go statement to have a provable
// shutdown/join path. A spawned unit (and its transitive module callees)
// must exhibit at least one of:
//
//   - a WaitGroup.Done on a WaitGroup some function Waits on — the
//     Add-before-spawn / defer-Done / Wait join idiom;
//   - a receive from ctx.Done() — context cancellation;
//   - a receive or range over a channel that some function closes — the
//     close-to-signal-shutdown idiom (a writer loop draining a closable
//     request channel);
//   - a close of a channel some other function receives from — the
//     exit-notification idiom (a server loop whose Close waits on a done
//     channel the goroutine closes on return).
//
// Anything else is a goroutine whose termination no code can wait for: a
// leak under repeated construction, and — worse for this codebase — a
// shutdown that cannot be sequenced, which is exactly how couplings hang
// at scale (PAPER.md §5). Spawns of dynamic function values are flagged
// too: a join path that cannot be resolved statically cannot be audited.
var GoroutineLifecycle = &Analyzer{
	Name:  "goroutinelifecycle",
	Doc:   "requires every go statement to have a provable join path (WaitGroup, ctx.Done, or close-signaled channel)",
	Scope: concScope,
	Run:   runGoroutineLifecycle,
}

// lifecycleDepth bounds the callee-closure search from a spawn target; the
// join evidence is always within a couple of hops in practice, and the
// bound keeps pathological call chains from hiding a missing join behind
// sheer distance.
const lifecycleDepth = 6

func runGoroutineLifecycle(pass *Pass) {
	sums := pass.Summaries()
	for _, fn := range sums.In(pass.Package) {
		for _, ev := range fn.Events {
			if ev.Kind != EvSpawn {
				continue
			}
			if ev.Callee == "" {
				name := ev.Ext
				if name == "" {
					name = "a dynamic function value"
				}
				pass.Reportf(ev.Pos,
					"go statement spawns %s, which cannot be resolved statically; spawn a named function or literal so its join path can be audited", name)
				continue
			}
			target := sums.Fns[ev.Callee]
			if target == nil {
				continue
			}
			if ok, _ := hasJoinPath(sums, ev.Callee); !ok {
				pass.Reportf(ev.Pos,
					"goroutine %s has no provable shutdown path: no WaitGroup.Done matched by a Wait, no ctx.Done receive, no close-signaled channel; it can leak and its termination cannot be sequenced into shutdown", target.Name)
			}
		}
	}
}

// hasJoinPath searches the spawned unit and its transitive callees for any
// of the four join evidences. The string names the evidence (for tests).
func hasJoinPath(sums *Summaries, id FuncID) (bool, string) {
	closure := sums.CalleeClosure(id, lifecycleDepth)
	for _, fn := range closure {
		// (1) WaitGroup join: the goroutine Dones a group someone Waits on.
		keys := make([]string, 0, len(fn.WGDone))
		for k := range fn.WGDone {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(sums.WGWaiters[k]) > 0 {
				return true, "waitgroup " + k
			}
		}
		// (2) Context cancellation.
		if fn.RecvKeys["#ctx"] {
			return true, "ctx.Done"
		}
		// (3) Receives from a channel that some function closes.
		rkeys := make([]string, 0, len(fn.RecvKeys))
		for k := range fn.RecvKeys {
			rkeys = append(rkeys, k)
		}
		sort.Strings(rkeys)
		for _, k := range rkeys {
			if len(sums.ChanClosers[k]) > 0 {
				return true, "close-signaled " + k
			}
		}
		// (4) Closes a channel some function receives from (exit signal).
		ckeys := make([]string, 0, len(fn.CloseKeys))
		for k := range fn.CloseKeys {
			ckeys = append(ckeys, k)
		}
		sort.Strings(ckeys)
		for _, k := range ckeys {
			if len(sums.ChanRecvers[k]) > 0 {
				return true, "exit-signal " + k
			}
		}
	}
	return false, ""
}
