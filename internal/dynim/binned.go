package dynim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"mummi/internal/stats"
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
//
// Binned keeps no set of IDs: its producers (the campaign's frame stream)
// mint unique IDs by construction, and a set of every ID ever offered would
// grow with the campaign. A re-offered ID is queued again.
type Binned struct {
	dims    []BinDim
	balance float64
	rng     *rand.Rand

	// bins holds every joint bin ever offered a point.
	bins map[int]*binState
	// nonEmpty is the min-heap of bins with queued candidates. Occupancy
	// only rises, so an Add to a queued bin can only sift it down.
	nonEmpty binHeap
	// queuedFen is the Fenwick tree of queued counts per joint bin, sized
	// at the first Add.
	queuedFen stats.Fenwick
	nbins     int // joint bin count, ∏ dims[i].Bins
	total     int // queued candidate count

	tel      *telemetry.Telemetry // nil = no instrumentation
	selCount telemetry.Lazy[telemetry.Counter]
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
		dims:    append([]BinDim(nil), dims...),
		balance: balance,
		rng:     rand.New(rand.NewSource(seed)),
		bins:    make(map[int]*binState),
		nbins:   nbins,
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

// SetTelemetry routes selection timings to tel (nil disables
// instrumentation). Timings are measured on the telemetry clock, never the
// wall clock, so instrumented replays stay deterministic.
func (b *Binned) SetTelemetry(tel *telemetry.Telemetry) {
	b.tel = tel
	b.selCount = telemetry.Lazy[telemetry.Counter]{}
}

// Add implements Selector: increment the bin's occupancy, queue the
// candidate and keep the select index current.
func (b *Binned) Add(p Point) error {
	if err := checkPoint(p, len(b.dims)); err != nil {
		return err
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
	b.queuedFen.Grow(b.nbins) // sized at the first Add, a no-op after it
	b.queuedFen.Add(bin, 1)
	b.total++
	return nil
}

// Select implements Selector.
func (b *Binned) Select(n int) []Point {
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
			// A uniform draw: the bin holding the k-th queued candidate.
			st = b.bins[b.queuedFen.Kth(b.rng.Intn(b.total))]
		}
		p := st.queued[0]
		st.queued[0] = Point{} // the backing array must not pin the popped point
		st.queued = st.queued[1:]
		if len(st.queued) == 0 {
			st.queued = nil
			heap.Remove(&b.nonEmpty, st.pos)
		}
		b.queuedFen.Add(st.bin, -1)
		b.total--
		out = append(out, p)
	}
	if b.tel != nil {
		b.tel.RecordSpan("dynim", "select", selStart, b.tel.Now().Sub(selStart),
			"want", n, "got", len(out))
		b.selCount.Get(b.tel, "dynim.selected_total").Add(int64(len(out)))
	}
	return out
}

// Len implements Selector.
func (b *Binned) Len() int { return b.total }
