// Package parallel provides the deterministic chunked fan-out primitive
// behind the selector engine's sharded rank updates (§4.4 Task 2) and any
// other embarrassingly-parallel loop in the workflow. It is deliberately
// minimal — contiguous chunks, one goroutine per chunk, no work stealing —
// because the determinism contract the samplers depend on is easiest to
// state for static decompositions: if the loop body writes only state owned
// by its own index range, the aggregate result is bit-identical for every
// worker count, including 1.
//
// All of it is standard library; GOMAXPROCS is the only sizing input.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS. It is
// the shared convention for every worker field in the repo (campaign
// config, selector engine).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For splits the index range [0, n) into Chunks(n, workers, minChunk)
// contiguous chunks and invokes fn(lo, hi) once per chunk, concurrently when
// more than one chunk results. minChunk bounds fan-out from below: workers
// are reduced until every chunk holds at least minChunk indexes, so tiny
// loops stay on the calling goroutine instead of paying spawn latency.
//
// Determinism contract: fn must touch only state owned by indexes in
// [lo, hi) (plus read-only shared state). Under that contract the combined
// effect of a For call is identical — bit for bit — regardless of the
// worker count, because chunking changes only the grouping of independent
// per-index computations, never their inputs.
//
// For blocks until every chunk completes. Panics inside fn propagate to
// the caller (re-raised after all workers finish).
func For(n, workers, minChunk int, fn func(lo, hi int)) {
	workers = Chunks(n, workers, minChunk)
	if workers == 0 {
		return
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	base, extra := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < extra {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Chunks reports how many chunks For uses for the same arguments. The
// decomposition depends only on (n, workers, minChunk), never on scheduling.
func Chunks(n, workers, minChunk int) int {
	if n <= 0 {
		return 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
