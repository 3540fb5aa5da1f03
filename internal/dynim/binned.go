package dynim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mummi/internal/telemetry"
)

// Binned is the discrete histogram sampler developed for CG frame selection
// (§4.1(6), §4.4 Task 2). Frame encodings are 3-D vectors of disparate
// quantities, so L2 distance is meaningless; instead each dimension is
// binned independently and a candidate's novelty is the inverse occupancy
// of its joint bin: frames from sparsely-explored regions of configuration
// space rank first.
//
// Balance controls importance vs randomness, a functional requirement of CG
// frame selection: with probability Balance a selection takes the most
// novel candidate; otherwise it takes a uniformly random one. Updates are
// O(1) per add (a counter increment), which is why this sampler handles
// ~165× more candidates than farthest-point ranking at the same refresh
// budget.
type Binned struct {
	mu sync.Mutex

	dims    []BinDim
	balance float64
	rng     *rand.Rand

	// occupancy counts every point ever offered (queued or selected); it is
	// the "seen" density estimate novelty is measured against.
	occupancy map[int]int
	// queued holds candidate IDs per joint bin, insertion-ordered.
	queued map[int][]Point
	total  int // queued candidate count

	journal  journal
	dd       dedupe
	trackDup bool
	tel      *telemetry.Telemetry // nil = no instrumentation
}

// BinDim describes the binning of one encoding dimension.
type BinDim struct {
	Lo, Hi float64
	Bins   int
}

// NewBinned creates a binned sampler. balance ∈ [0,1]: 1 = pure importance
// (always the least-occupied bin), 0 = pure random. seed makes selection
// reproducible.
func NewBinned(dims []BinDim, balance float64, seed int64) (*Binned, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dynim: binned sampler needs at least one dimension")
	}
	for i, d := range dims {
		if d.Bins < 1 || d.Hi <= d.Lo {
			return nil, fmt.Errorf("dynim: invalid bin dim %d: %+v", i, d)
		}
	}
	if balance < 0 || balance > 1 {
		return nil, fmt.Errorf("dynim: balance %v outside [0,1]", balance)
	}
	return &Binned{
		dims:      append([]BinDim(nil), dims...),
		balance:   balance,
		rng:       rand.New(rand.NewSource(seed)),
		occupancy: make(map[int]int),
		queued:    make(map[int][]Point),
		dd:        newDedupe(),
		trackDup:  true,
	}, nil
}

// binOf maps coords to a joint bin index (row-major over dimensions);
// out-of-range coordinates clamp to edge bins, keeping tails visible.
func (b *Binned) binOf(coords []float64) int {
	idx := 0
	for i, d := range b.dims {
		j := int(float64(d.Bins) * (coords[i] - d.Lo) / (d.Hi - d.Lo))
		if j < 0 {
			j = 0
		}
		if j >= d.Bins {
			j = d.Bins - 1
		}
		idx = idx*d.Bins + j
	}
	return idx
}

// DisableJournal stops event recording (campaign-scale memory bound).
func (b *Binned) DisableJournal() {
	b.mu.Lock()
	b.journal.disabled = true
	b.mu.Unlock()
}

// SetTelemetry routes selection timings to tel (nil disables
// instrumentation). Timings are measured on the telemetry clock, never the
// wall clock, so instrumented replays stay deterministic.
func (b *Binned) SetTelemetry(tel *telemetry.Telemetry) {
	b.mu.Lock()
	b.tel = tel
	b.mu.Unlock()
}

// SetTrackDuplicates toggles duplicate-ID rejection. Producers that
// guarantee unique IDs (the campaign driver does, by construction) turn it
// off so the dedupe set does not grow with every candidate ever offered.
func (b *Binned) SetTrackDuplicates(on bool) {
	b.mu.Lock()
	b.trackDup = on
	b.mu.Unlock()
}

// Add implements Selector: O(1) — increment the bin's occupancy and queue
// the candidate.
func (b *Binned) Add(p Point) error {
	if len(p.Coords) != len(b.dims) {
		return fmt.Errorf("dynim: point %q has dim %d, sampler dim %d", p.ID, len(p.Coords), len(b.dims))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trackDup && !b.dd.claim(p.ID) {
		return nil
	}
	bin := b.binOf(p.Coords)
	b.occupancy[bin]++
	b.queued[bin] = append(b.queued[bin], p)
	b.total++
	b.journal.record("add", p.ID)
	return nil
}

// Update implements Selector. Occupancy is maintained incrementally, so a
// refresh is a no-op; the method exists to satisfy the Selector contract.
func (b *Binned) Update() {}

// Select implements Selector.
func (b *Binned) Select(n int) []Point {
	b.mu.Lock()
	defer b.mu.Unlock()
	var selStart time.Time
	if b.tel != nil {
		selStart = b.tel.Now()
	}
	var out []Point
	for len(out) < n && b.total > 0 {
		var bin int
		if b.rng.Float64() < b.balance {
			bin = b.leastOccupiedNonEmpty()
		} else {
			bin = b.randomNonEmpty()
		}
		q := b.queued[bin]
		p := q[0]
		b.queued[bin] = q[1:]
		if len(b.queued[bin]) == 0 {
			delete(b.queued, bin)
		}
		b.total--
		b.journal.record("select", p.ID)
		out = append(out, p)
	}
	if b.tel != nil {
		b.tel.Histogram("dynim.select_ms", "ms", nil).Observe(b.tel.MsSince(selStart))
		b.tel.RecordSpan("dynim", "select", selStart, b.tel.Now().Sub(selStart),
			"want", n, "got", len(out))
		b.tel.Counter("dynim.selected_total").Add(int64(len(out)))
	}
	return out
}

// leastOccupiedNonEmpty returns the queued bin with the smallest occupancy,
// ties broken by bin index for determinism. Caller holds the lock.
func (b *Binned) leastOccupiedNonEmpty() int {
	best, bestOcc := -1, 0
	//lint:allow determinism -- min-reduction with a total-order tie-break on bin index; the result is iteration-order independent
	for bin := range b.queued {
		occ := b.occupancy[bin]
		if best < 0 || occ < bestOcc || (occ == bestOcc && bin < best) {
			best, bestOcc = bin, occ
		}
	}
	return best
}

// randomNonEmpty picks a queued candidate uniformly at random (weighting
// bins by their queue length). Caller holds the lock.
func (b *Binned) randomNonEmpty() int {
	k := b.rng.Intn(b.total)
	// Deterministic iteration: walk bins in ascending index order.
	bins := make([]int, 0, len(b.queued))
	for bin := range b.queued {
		bins = append(bins, bin)
	}
	sort.Ints(bins)
	for _, bin := range bins {
		if k < len(b.queued[bin]) {
			return bin
		}
		k -= len(b.queued[bin])
	}
	return bins[len(bins)-1]
}

// Len implements Selector.
func (b *Binned) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Occupancy returns the occupancy count of the joint bin containing coords.
func (b *Binned) Occupancy(coords []float64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.occupancy[b.binOf(coords)]
}

// History implements Selector.
func (b *Binned) History() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.journal.history()
}
