package dynim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
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
// novel candidate; otherwise it takes a uniformly random one. An add is a
// counter increment — no ranks to refresh — which is why this sampler
// handles ~165× more candidates than farthest-point ranking at the same
// refresh budget.
//
// Select is indexed, not scanned: the non-empty bins sit in a min-heap under
// (occupancy, bin), so the most novel candidate is at the root, and a
// Fenwick tree of queued counts over the joint-bin index turns the uniform
// draw into one prefix-sum descent in ascending bin order. Add and Select
// keep both current, so either costs O(log bins) however many bins are
// non-empty.
type Binned struct {
	mu sync.Mutex

	dims    []BinDim
	balance float64
	rng     *rand.Rand

	// bins holds every joint bin ever offered a point.
	bins map[int]*binState
	// nonEmpty is the min-heap of bins with queued candidates. Occupancy
	// only rises, so an Add to a queued bin can only sift it down.
	nonEmpty binHeap
	// queuedFen is the Fenwick tree (1-based) of queued counts per joint
	// bin, allocated at the first Add.
	queuedFen []int
	nbins     int // joint bin count, ∏ dims[i].Bins
	total     int // queued candidate count

	journal  journal
	dd       dedupe
	trackDup bool
	tel      *telemetry.Telemetry // nil = no instrumentation
}

// binState is one joint bin.
type binState struct {
	bin int
	// occupancy counts every point ever offered (queued or selected); it is
	// the "seen" density estimate novelty is measured against.
	occupancy int
	queued    []Point // insertion-ordered
	pos       int     // index in Binned.nonEmpty while queued is non-empty
}

// binHeap orders non-empty bins least-occupied first, ties broken by bin
// index for determinism. It implements container/heap.Interface.
type binHeap []*binState

func (h binHeap) Len() int { return len(h) }
func (h binHeap) Less(i, j int) bool {
	if h[i].occupancy != h[j].occupancy {
		return h[i].occupancy < h[j].occupancy
	}
	return h[i].bin < h[j].bin
}
func (h binHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

// Push implements heap.Interface.
func (h *binHeap) Push(x any) {
	st := x.(*binState)
	st.pos = len(*h)
	*h = append(*h, st)
}

// Pop implements heap.Interface.
func (h *binHeap) Pop() any {
	old := *h
	st := old[len(old)-1]
	*h = old[:len(old)-1]
	return st
}

// BinDim describes the binning of one encoding dimension.
type BinDim struct {
	Lo, Hi float64
	Bins   int
}

// maxJointBins bounds ∏ Bins: the select index is dense over the joint-bin
// range, so a binning too fine to index is refused rather than scanned.
const maxJointBins = 1 << 24

// NewBinned creates a binned sampler. balance ∈ [0,1]: 1 = pure importance
// (always the least-occupied bin), 0 = pure random. seed makes selection
// reproducible.
func NewBinned(dims []BinDim, balance float64, seed int64) (*Binned, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dynim: binned sampler needs at least one dimension")
	}
	nbins := 1
	for i, d := range dims {
		if d.Bins < 1 || d.Hi <= d.Lo {
			return nil, fmt.Errorf("dynim: invalid bin dim %d: %+v", i, d)
		}
		if d.Bins > maxJointBins/nbins {
			return nil, fmt.Errorf("dynim: binning has more than %d joint bins", maxJointBins)
		}
		nbins *= d.Bins
	}
	if balance < 0 || balance > 1 {
		return nil, fmt.Errorf("dynim: balance %v outside [0,1]", balance)
	}
	return &Binned{
		dims:     append([]BinDim(nil), dims...),
		balance:  balance,
		rng:      rand.New(rand.NewSource(seed)),
		bins:     make(map[int]*binState),
		nbins:    nbins,
		dd:       newDedupe(),
		trackDup: true,
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

// Add implements Selector: increment the bin's occupancy, queue the
// candidate and keep the select index current.
func (b *Binned) Add(p Point) error {
	if err := checkPoint(p, len(b.dims)); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trackDup && !b.dd.claim(p.ID) {
		return nil
	}
	bin := b.binOf(p.Coords)
	st := b.bins[bin]
	if st == nil {
		st = &binState{bin: bin}
		b.bins[bin] = st
	}
	st.occupancy++
	st.queued = append(st.queued, p)
	if len(st.queued) == 1 {
		heap.Push(&b.nonEmpty, st)
	} else {
		heap.Fix(&b.nonEmpty, st.pos)
	}
	if b.queuedFen == nil {
		b.queuedFen = make([]int, b.nbins+1)
	}
	b.fenAdd(bin, 1)
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
		var st *binState
		if b.rng.Float64() < b.balance {
			st = b.nonEmpty[0]
		} else {
			st = b.bins[b.randomNonEmpty()]
		}
		p := st.queued[0]
		st.queued[0] = Point{} // the backing array must not pin the popped point
		st.queued = st.queued[1:]
		if len(st.queued) == 0 {
			st.queued = nil
			heap.Remove(&b.nonEmpty, st.pos)
		}
		b.fenAdd(st.bin, -1)
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

// fenAdd adds d to bin's queued count. Caller holds the lock.
func (b *Binned) fenAdd(bin, d int) {
	for i := bin + 1; i < len(b.queuedFen); i += i & -i {
		b.queuedFen[i] += d
	}
}

// randomNonEmpty picks a queued candidate uniformly at random (weighting
// bins by their queue length) and returns its bin: the first, in ascending
// index order, whose cumulative queued count exceeds the draw. Caller holds
// the lock.
func (b *Binned) randomNonEmpty() int {
	k := b.rng.Intn(b.total)
	bin := 0
	for step := 1 << (bits.Len(uint(b.nbins)) - 1); step > 0; step >>= 1 {
		if next := bin + step; next <= b.nbins && b.queuedFen[next] <= k {
			bin = next
			k -= b.queuedFen[next]
		}
	}
	return bin
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
	if st := b.bins[b.binOf(coords)]; st != nil {
		return st.occupancy
	}
	return 0
}

// History implements Selector.
func (b *Binned) History() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.journal.history()
}
