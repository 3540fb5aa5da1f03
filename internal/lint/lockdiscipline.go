package lint

import (
	"strings"
)

// LockDiscipline checks the packages that share state across goroutines
// under mutexes — the store client and server, telemetry, the feedback and
// selector worker pools (concScope). The coordination layers hold no lock:
// they run on the virtual clock's one goroutine (DESIGN.md §6). Every past
// deadlock and state-corruption bug under a mutex here falls into one of
// two shapes, both checked here (the third, a by-value copy of a
// lock-bearing struct, is go vet's copylocks, which runs before this
// suite):
//
//  1. a mutex Lock() without an Unlock() on some return path (and without
//     a defer) — the classic leaked lock, with its relatives: branches that
//     leave different locks held, a loop body that does not balance, a
//     second Lock of a held mutex, an Unlock of one not held, a TryLock;
//  2. a blocking operation while a mutex is held: channel send/receive,
//     WaitGroup.Wait, time.Sleep, or datastore/network/file I/O — the
//     classic lock-convoy / deadlock seed. Channel operations and Waits
//     are also found through module callees: calling a function that
//     (transitively) blocks on a channel while holding a lock is the same
//     bug one frame removed, and with an RWMutex it also wedges writers,
//     which is how one stalled kvstore pipe froze Close and every other
//     pipe's submitters. A send or receive in a select with a default
//     clause cannot stall and is exempt.
//
// The lock-state analysis is the summary layer's walk (summary.go): it is
// structural and per function, tracking held locks through if/else, switch,
// select, and loops. Helper functions documented as "caller holds mu" are
// therefore analyzed as lock-neutral, which matches the repo's convention.
// Callbacks passed as values are opaque to it.
var LockDiscipline = &Analyzer{
	Name:  "lockdiscipline",
	Doc:   "flags leaked locks and blocking operations under a held mutex, directly or through a module callee",
	Scope: concScope,
	Run:   runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	sums := pass.Summaries()
	for _, fn := range sums.In(pass.Package) {
		for _, lf := range fn.LockFindings {
			pass.Reportf(lf.Pos, "%s", lf.Msg)
		}
		for _, ev := range fn.Events {
			if len(ev.Held) == 0 || ev.NonBlocking || ev.Ref {
				continue
			}
			held := "{" + strings.Join(ev.Held, ",") + "}"
			what := ""
			switch ev.Kind {
			case EvSend:
				what = "channel send on " + ev.Key
			case EvRecv:
				what = "channel receive from " + ev.Key
			case EvWGWait:
				what = "sync.WaitGroup.Wait"
			case EvBlock:
				what = ev.Ext
			case EvCall:
				callee := sums.Fns[ev.Callee]
				if callee == nil || callee.TransChanOp == nil {
					continue
				}
				op := callee.TransChanOp
				verb := "sends on channel"
				switch op.Kind {
				case EvRecv:
					verb = "receives from channel"
				case EvWGWait:
					verb = "waits on WaitGroup"
				}
				at := pass.Fset.Position(op.Pos)
				pass.Reportf(ev.Pos,
					"calling %s while holding %s; it (transitively) %s %s at %s:%d, a blocking operation under the lock",
					callee.Name, held, verb, op.Key, shortFile(at.Filename), at.Line)
				continue
			default:
				continue
			}
			pass.Reportf(ev.Pos,
				"%s while holding %s: blocking operations under a mutex stall every other workflow task (§4.4); release the lock first",
				what, held)
		}
	}
}
