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
//     lazily: adding a candidate is O(1) and the expensive distance work is
//     deferred to selection time, exactly the paper's caching scheme.
//
//   - Binned: the new histogram sampler developed for CG frames, whose 3-D
//     encoding mixes disparate quantities where L2 is meaningless. It treats
//     each dimension separately through binning and exposes a control over
//     the balance between importance and randomness.
//
// Both samplers maintain a replayable history journal, supporting the
// paper's resilience strategy ("key components (ML and job scheduling) also
// maintain elaborate history files that may be replayed exactly").
package dynim

import (
	"fmt"
	"math"
)

// Point is one selection candidate: an application object (patch, CG frame)
// reduced to a coordinate vector by some encoder.
type Point struct {
	ID     string    `json:"id"`
	Coords []float64 `json:"coords"`
}

// checkPoint is both samplers' admission check: dim coordinates, all finite.
// A NaN or ±Inf coordinate has no place in either order — a NaN rank compares
// false both ways, so FarthestPoint's (distance, ID) heap order stops being
// total, and converting a non-finite bin offset to int is
// implementation-defined, so Binned would file it differently per GOARCH.
func checkPoint(p Point, dim int) error {
	if len(p.Coords) != dim {
		return fmt.Errorf("dynim: point %q has dim %d, sampler dim %d", p.ID, len(p.Coords), dim)
	}
	for i, c := range p.Coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("dynim: point %q has non-finite coordinate %d (%v)", p.ID, i, c)
		}
	}
	return nil
}

// Selector is the abstract selection API shared by both samplers and by any
// application-defined replacement (§4.5).
type Selector interface {
	// Add ingests a new candidate. It must be cheap: candidates arrive at
	// data-production rate (thousands per minute at scale).
	Add(p Point) error
	// Select returns up to n candidates, removing them from the queue and
	// marking them selected. Expensive rank refreshes happen here.
	Select(n int) []Point
	// Update refreshes candidate ranks without selecting. The workflow never
	// calls it: Select and eviction refresh what they need themselves.
	Update()
	// Len returns the current number of queued candidates.
	Len() int
	// History returns the journal of selection events so far.
	History() []Event
}

// Event is one journal entry. Kind is "add", "select", or "evict".
type Event struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// journal is an embedded, mutex-free event log; the owning sampler's lock
// guards it. Campaign-scale runs (millions of adds) disable recording to
// bound memory; the sequence counter keeps advancing either way.
type journal struct {
	seq      int64
	events   []Event
	disabled bool
}

func (j *journal) record(kind, id string) {
	j.seq++
	if j.disabled {
		return
	}
	j.events = append(j.events, Event{Seq: j.seq, Kind: kind, ID: id})
}

func (j *journal) history() []Event {
	return append([]Event(nil), j.events...)
}

// dedupe guards against re-adding an ID that is queued or already selected;
// the workflow may legitimately re-offer frames after a producer restart.
type dedupe struct {
	seen map[string]bool
}

func newDedupe() dedupe { return dedupe{seen: make(map[string]bool)} }

// claim reports whether id was free, and takes it. One map operation: the
// insert either grows the map or lands on the existing entry.
func (d *dedupe) claim(id string) bool {
	n := len(d.seen)
	d.seen[id] = true
	return len(d.seen) > n
}

func (d *dedupe) release(id string) { delete(d.seen, id) }
