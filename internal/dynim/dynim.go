// Package dynim implements dynamic-importance sampling, mummi-go's version
// of the DynIm framework the paper's Patch Selector and Frame Selector are
// built on (§4.4, Task 2). Selectors operate on high-dimensional point
// objects and are agnostic to how patches or frames were encoded.
//
// Two samplers are provided, matching the paper:
//
//   - FarthestPoint: selects the candidate farthest (L2) from everything
//     already selected — the patch selector's novelty criterion over 9-D
//     encodings. Candidates are ingested as data arrives; selections happen
//     only when simulations turn over, so ranks are cached and refreshed
//     lazily: adding a candidate is O(1) when its ID is above every ID
//     admitted before (O(queue) at or below that mark, where a re-offer is
//     checked exactly), and the expensive distance work is deferred to
//     selection time, exactly the paper's caching scheme.
//
//   - Binned: the new histogram sampler developed for CG frames, whose 3-D
//     encoding mixes disparate quantities where L2 is meaningless. It treats
//     each dimension separately through binning and exposes a control over
//     the balance between importance and randomness.
//
// The selectors keep no history: what was added, selected or evicted lives
// only in their queues and selected sets. The paper's replayable history
// files ("key components (ML and job scheduling) also maintain elaborate
// history files that may be replayed exactly") belong to a recovery journal
// the workflow manager owns in the store — ROADMAP "Honest recovery, one
// path, checked from outside".
package dynim

import (
	"fmt"
	"math"
	"strconv"
)

// Point is one selection candidate: an application object (patch, CG frame)
// reduced to a coordinate vector by some encoder.
type Point struct {
	ID     string
	Coords []float64
}

// checkPoint is both samplers' admission check: dim coordinates, all finite.
// A NaN or ±Inf coordinate has no place in either order — a NaN rank compares
// false both ways, so FarthestPoint's (distance, ID) heap order stops being
// total, and converting a non-finite bin offset to int is
// implementation-defined, so Binned would file it differently per GOARCH.
func checkPoint(p Point, dim int) error {
	// The ID is quoted before formatting so that p does not escape: Binned
	// copies a point, and its callers pass IDs and coordinates on the stack.
	if len(p.Coords) != dim {
		return fmt.Errorf("dynim: point %s has dim %d, sampler dim %d", strconv.Quote(p.ID), len(p.Coords), dim)
	}
	for i, c := range p.Coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("dynim: point %s has non-finite coordinate %d (%v)", strconv.Quote(p.ID), i, c)
		}
	}
	return nil
}

// Selector is the abstract selection API shared by both samplers, the patch
// QueueSet, and any application-defined replacement (§4.5).
type Selector interface {
	// Add ingests a new candidate. It must be cheap: candidates arrive at
	// data-production rate (thousands per minute at scale). Add copies what
	// it keeps; the caller may reuse p.Coords once Add returns.
	Add(p Point) error
	// Select returns up to n candidates, removing them from the queue and
	// marking them selected. Expensive rank refreshes happen here.
	Select(n int) []Point
	// Len returns the current number of queued candidates.
	Len() int
}
