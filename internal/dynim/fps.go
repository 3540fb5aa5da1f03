package dynim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"mummi/internal/parallel"
	"mummi/internal/telemetry"
)

// FarthestPoint ranks candidates by their L2 distance to the nearest
// already-selected point and selects the farthest — dynamic-importance
// sampling as used by the paper's Patch Selector over 9-D ML encodings.
//
// Rank caching: a candidate's distance-to-selected can only shrink as new
// selections are made, so each candidate caches its distance together with
// the number of selected points it has been compared against; Update only
// compares against selections made since. This is what keeps distance work
// out of Add — whose dedupe is one comparison for an ascending ID — and
// keeps "the cost of adding new candidates negligible" (§4.4).
//
// Every distance comes from one kernel, foldRows (fold.go defines it;
// fold_amd64.s is the same arithmetic on AVX2 hosts, one selected row per
// lane), and every row a refresh is owed is evaluated: nothing prunes. Six
// engine-level optimizations ride on top of the caching scheme:
//
//   - Squared distances end-to-end: the cache holds *squared* L2 values and
//     every comparison is squared-vs-squared, removing one math.Sqrt per
//     candidate-selection comparison from the hot path. Squaring is
//     strictly monotonic, so every ordering is unchanged.
//
//   - Flat candidate storage: candidates live in dense parallel arrays
//     (structure-of-arrays) indexed by slot — coordinates in one row-major
//     arena, cached ranks and staleness counters in flat slices. A rank
//     refresh streams those arrays in slot order instead of chasing one
//     heap pointer per candidate. The selected rows are one arena too,
//     stored four rows to a block with each coordinate's four values
//     adjacent, so the kernel ranks four rows per vector instruction and is
//     bound by floating-point issue, not by loads or horizontal adds.
//
//   - Sharded rank updates: what is split is distance work, and it is split
//     in two steps. Candidates that arrived since the last pick are unranked
//     and each scans every selected row, where a candidate ranked before
//     scans only the rows selected since; arrivals also sit at the end of
//     the slot range. So every pick and every eviction first ranks the
//     arrival list on its own, in contiguous chunks over parallel.For
//     (rankArrivals), and only then walks the slot range, whose slots now
//     cost about the same — also in contiguous chunks. Both fan-outs are
//     sized by row evaluations (slots × rows a slot can still have to see),
//     not by slot count, so two arrivals against 7,500 selections split and
//     a thousand fresh slots do not. Each slot's refresh reads the
//     append-only selected rows and writes only its own cache, so the
//     result is bit-identical to the serial path for every worker count —
//     the determinism contract every §5 replay figure depends on.
//
//   - Dirty-set refresh: staleness is tracked explicitly — new arrivals
//     join a dirty list and wait unsifted at their heap leaf, and a
//     selection promotes the whole store to dirty (every rank may shrink
//     against the new point). Update re-ranks only the invalidated
//     candidates and inserts just their heap entries, so the feedback
//     loop's between-selection refreshes cost O(dirty·log n) instead of an
//     O(n) counter scan plus a full re-heapify, and an offer is appends.
//
//   - Threshold eviction: past the cap, the victims are every slot ranked
//     below the m-th smallest rank plus the smallest IDs at it — one
//     quickselect over the ranks' bit patterns into reused scratch, not a
//     sort or a bounded heap.
//
//   - Lazy max-heap selection: an index heap keyed on (cached distance,
//     ID) tracks the candidate order. A cached value is always an *upper
//     bound* on the true rank (distances only shrink), so Select pops the
//     top, refreshes it if stale, and re-sifts; the first fresh element to
//     surface is exactly the argmax the serial full-rescan picked,
//     tie-broken identically by ID. k selections cost O(k log n) plus the
//     unavoidable incremental distance work, instead of O(k·n). A pick that
//     keeps surfacing stale roots (a cold burst, many selections since the
//     last sweep) falls back to Update's whole-store refresh and one
//     heapify, then continues lazily.
//
// The queue is capped (35,000 in the paper's patch queues); beyond the cap
// the lowest-ranked (least novel) candidate is evicted.
type FarthestPoint struct {
	dim      int
	capacity int
	workers  int // rank-update fan-out; <=0 means GOMAXPROCS

	// Structure-of-arrays candidate store. Slots are dense [0, n); freeing
	// a slot moves the last slot into the hole so refresh passes stream
	// contiguous memory.
	ids     []string
	coords  []float64 // slot s → coords[s*dim : (s+1)*dim]
	dist2   []float64 // cached min *squared* distance to sel[0:seenSel[s]]
	seenSel []int32

	// Index max-heap over slots under (dist2 desc, ID asc); the arrivals on
	// the dirty list wait unsifted at its tail.
	h       []int32 // heap position → slot
	heapPos []int32 // slot → heap position

	// Dirty-set staleness tracking. Every slot whose cached rank may be
	// stale is either listed in dirty (new arrivals, appended in creation
	// order and left unsifted at the heap's tail, unranked until
	// rankArrivals empties the list) or covered by allDirty (set after any
	// selection, since a new selected point can tighten every rank). Update
	// consults these instead of scanning all seenSel counters, so a refresh
	// between selections re-ranks only the invalidated candidates and
	// inserts just their heap entries — O(dirty·log n) instead of an O(n)
	// sweep and full re-heapify per feedback tick.
	dirty    []int32
	allDirty bool

	// Eviction scratch, reused across evictions: rank bit patterns for the
	// threshold select, the victims, and the slots tied at the threshold.
	evKeys    []uint64
	evVictims []int32
	evTies    []int32

	// sweptSel is the selection count at the last full sweep. Once the
	// arrival list is ranked no slot has seen fewer selections, so a walk
	// over the slot range costs at most nsel-sweptSel rows per slot.
	sweptSel int

	selRows []float64 // selected coordinates, four rows a block (fold.go), append-only
	nsel    int       // rows in selRows

	// Add's dedupe: hi is the greatest ID ever admitted and selected every
	// ID picked (it only grows); a queued ID is in ids, an evicted one in
	// neither.
	hi       string
	selected map[string]struct{}

	tel      *telemetry.Telemetry // nil = no instrumentation
	selCount telemetry.Lazy[telemetry.Counter]
}

// fpsMinWork is the fewest distance evaluations (one candidate against one
// selected row) worth a goroutine: below it, spawn latency dominates the
// arithmetic. At foldRows' ~1.8 ns a 9-D row (AVX2, 2 vCPU) that is ~15 µs
// of work. Re-measured under that kernel: 2,048 through 65,536 are within
// run-to-run noise of each other on BenchmarkFPSCampaignTraffic (530–830
// µs/op, no value ahead in 5 interleaved rounds) and on replay-paper (3
// rounds, medians 6.9–7.7 s); the best-looking value, 32,768, won 2 of the
// first 5 pairs against 8,192, so the value stands.
const fpsMinWork = 8192

// minChunk is parallel.For's minChunk for a fan-out whose slots each fold in
// up to rows selected rows: the slot count that adds up to fpsMinWork.
func minChunk(rows int) int { return max(1, fpsMinWork/max(1, rows)) }

// NewFarthestPoint creates a sampler for dim-dimensional points with the
// given queue capacity (0 means unbounded).
func NewFarthestPoint(dim, capacity int) *FarthestPoint {
	if dim < 1 {
		panic(fmt.Sprintf("dynim: invalid dimension %d", dim))
	}
	return &FarthestPoint{
		dim:      dim,
		capacity: capacity,
		selected: make(map[string]struct{}),
	}
}

// SetWorkers sets the rank-update fan-out (0 = GOMAXPROCS). Selection
// output is identical for every value — the knob trades wall-clock only.
func (f *FarthestPoint) SetWorkers(n int) { f.workers = n }

// SetTelemetry routes rank-refresh and selection timings to tel (nil
// disables instrumentation). Timings are measured on the telemetry clock,
// never the wall clock, so instrumented replays stay deterministic.
func (f *FarthestPoint) SetTelemetry(tel *telemetry.Telemetry) {
	f.tel = tel
	f.selCount = telemetry.Lazy[telemetry.Counter]{}
}

// ---------------------------------------------------------------------------
// Slot store and index heap

// heapAbove reports whether slot a sorts above slot b: most novel first
// (larger cached squared distance), ties broken by smaller ID — the same
// total order the serial argmax used, so heap-top equals argmax-pick.
func (f *FarthestPoint) heapAbove(a, b int32) bool {
	if f.dist2[a] != f.dist2[b] {
		return f.dist2[a] > f.dist2[b]
	}
	return f.ids[a] < f.ids[b]
}

func (f *FarthestPoint) heapSwap(i, j int) {
	f.h[i], f.h[j] = f.h[j], f.h[i]
	f.heapPos[f.h[i]] = int32(i)
	f.heapPos[f.h[j]] = int32(j)
}

func (f *FarthestPoint) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !f.heapAbove(f.h[i], f.h[parent]) {
			break
		}
		f.heapSwap(i, parent)
		i = parent
	}
}

// down sifts position i toward the leaves; reports whether it moved.
func (f *FarthestPoint) down(i int) bool {
	start, n := i, len(f.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && f.heapAbove(f.h[r], f.h[l]) {
			best = r
		}
		if !f.heapAbove(f.h[best], f.h[i]) {
			break
		}
		f.heapSwap(i, best)
		i = best
	}
	return i > start
}

func (f *FarthestPoint) heapInit() {
	for i := len(f.h)/2 - 1; i >= 0; i-- {
		f.down(i)
	}
}

// heapRemoveAt removes the heap entry at position pos.
func (f *FarthestPoint) heapRemoveAt(pos int) {
	last := len(f.h) - 1
	if pos != last {
		f.h[pos] = f.h[last]
		f.heapPos[f.h[pos]] = int32(pos)
	}
	f.h = f.h[:last]
	if pos < last {
		if !f.down(pos) {
			f.up(pos)
		}
	}
}

// newSlot appends a candidate to the store and heap with an unranked
// (+Inf) cache. Against a non-empty selected set the arrival is stale until
// rankArrivals, so it joins the dirty list and waits at its leaf: sifting
// its +Inf toward the root now would only be undone once it is ranked, and
// nothing reads the heap order before siftArrivals inserts it. With nothing
// selected +Inf is the final rank, so it sifts at once.
func (f *FarthestPoint) newSlot(p Point) {
	s := int32(len(f.ids))
	f.ids = append(f.ids, p.ID)
	f.coords = append(f.coords, p.Coords...)
	f.dist2 = append(f.dist2, math.Inf(1))
	f.seenSel = append(f.seenSel, 0)
	f.heapPos = append(f.heapPos, int32(len(f.h)))
	f.h = append(f.h, s)
	if f.nsel > 0 {
		f.dirty = append(f.dirty, s)
	} else {
		f.up(len(f.h) - 1)
	}
}

// freeSlot releases slot s by moving the last slot into it. The slot must
// already be out of the heap; the moved slot's heap entry is re-pointed.
func (f *FarthestPoint) freeSlot(s int32) {
	last := int32(len(f.ids) - 1)
	if s != last {
		f.ids[s] = f.ids[last]
		copy(f.coords[int(s)*f.dim:int(s+1)*f.dim], f.coords[int(last)*f.dim:int(last+1)*f.dim])
		f.dist2[s] = f.dist2[last]
		f.seenSel[s] = f.seenSel[last]
		hp := f.heapPos[last]
		f.heapPos[s] = hp
		f.h[hp] = s
	}
	f.ids[last] = "" // release the string before truncating
	f.ids = f.ids[:last]
	f.coords = f.coords[:int(last)*f.dim]
	f.dist2 = f.dist2[:last]
	f.seenSel = f.seenSel[:last]
	f.heapPos = f.heapPos[:last]
}

// refreshSlot folds selections [seenSel[s], n) into slot s's cached rank.
// rows is the selected set's blocked storage (fold.go) for rows [0, n).
// Every rank comparison in the engine goes through this one call into
// foldRows, so the ordering stays internally consistent; a slot's value
// depends on its own coordinates and the selected rows alone, never on chunk
// boundaries, so sharded passes stay bit-identical for every worker count.
func (f *FarthestPoint) refreshSlot(s int32, n int, rows []float64) {
	dim := f.dim
	q := f.coords[int(s)*dim : int(s)*dim+dim]
	f.dist2[s] = foldRows(q, rows, dim, int(f.seenSel[s]), n, f.dist2[s])
	f.seenSel[s] = int32(n)
}

// rankArrivals ranks every slot on the arrival list against selections
// [0, n), fanned out over the workers; the caller empties the list
// afterwards. It runs before any pick or eviction looks at the store. An
// arrival's +Inf cache sorts above every finite rank, so no pick completes
// before each arrival has been refreshed to exactly this value — ranking
// them here changes who computes it and when, never what.
// Left to the walks that follow it would land on one goroutine: the lazy
// pick surfaces arrivals through the heap root one at a time, and a
// contiguous split of the slot range hands the final chunk all of them.
func (f *FarthestPoint) rankArrivals(n int) {
	dirty, rows := f.dirty, f.selRows
	parallel.For(len(dirty), parallel.Workers(f.workers), minChunk(n), func(lo, hi int) {
		for _, s := range dirty[lo:hi] {
			f.refreshSlot(s, n, rows)
		}
	})
}

// siftArrivals inserts the ranked arrivals into the heap order, and empties
// the list. The arrivals wait unsifted at the heap's tail (newSlot) in
// creation order, which is ascending position order, so this is sequential
// heap insertion: one sift-up each, in creation order. A sift-up from p only
// moves entries above p, so every later arrival is still where it was
// appended, and each insertion finds a valid heap above it.
func (f *FarthestPoint) siftArrivals() {
	for _, s := range f.dirty {
		f.up(int(f.heapPos[s]))
	}
	f.dirty = f.dirty[:0]
}

// refreshAll brings every slot's rank up to date and re-heapifies once:
// every rank may have shrunk since the last selection, so the whole store is
// walked. The arrival list must already be ranked (rankArrivals); once it
// is, what is left costs at most nsel-sweptSel rows a slot.
func (f *FarthestPoint) refreshAll() {
	n, rows := f.nsel, f.selRows
	parallel.For(len(f.ids), parallel.Workers(f.workers), minChunk(n-f.sweptSel), func(lo, hi int) {
		for s := int32(lo); s < int32(hi); s++ {
			if int(f.seenSel[s]) < n {
				f.refreshSlot(s, n, rows)
			}
		}
	})
	f.allDirty = false
	f.sweptSel = n
	f.dirty = f.dirty[:0]
	f.heapInit()
}

// ---------------------------------------------------------------------------
// Selector implementation

// Add implements Selector. Duplicate IDs (already queued or selected) are
// ignored without error, so producers may safely re-offer after restarts; a
// point of the wrong dimension or with a NaN or ±Inf coordinate is an error.
//
// The dedupe check is O(1) for an ID above every ID admitted so far — one
// string comparison, which is every offer from a producer whose IDs ascend —
// and O(queue) at or below that mark, where a possible re-offer is checked
// exactly against the selected set and the queued IDs. Accepting such an ID
// leaves the mark where it is: lowering it would let a queued ID between
// the two through the fast path.
func (f *FarthestPoint) Add(p Point) error {
	if err := checkPoint(p, f.dim); err != nil {
		return err
	}
	if p.ID > f.hi {
		f.hi = p.ID
	} else if _, ok := f.selected[p.ID]; ok || slices.Contains(f.ids, p.ID) {
		return nil
	}
	f.newSlot(p)
	if f.capacity > 0 && len(f.ids) > f.capacity {
		// Evict in amortized batches: a single-victim scan per add would be
		// O(queue) for every candidate past the cap, which the campaign's
		// millions of patch offers cannot afford. The queue is allowed a
		// small slack, then trimmed back to capacity in one pass.
		slack := f.capacity / 16
		if slack < 1 {
			slack = 1
		}
		if len(f.ids) >= f.capacity+slack {
			f.evictDownTo(f.capacity)
		}
	}
	return nil
}

// evictDownTo drops the m least-novel candidates — least under (dist² asc,
// ID asc) — until only target remain. Ranks are refreshed first so victims
// are chosen on current distances; the refresh amortizes over the eviction
// slack exactly like the batch itself. The victims come from one threshold
// select: τ is the m-th smallest rank, and they are every slot ranked below
// τ plus, of the slots at τ, the smallest IDs — O(n) expected, in scratch
// reused across evictions.
func (f *FarthestPoint) evictDownTo(target int) {
	f.Update()
	m := len(f.ids) - target
	if m <= 0 {
		return
	}
	// Ranks are ≥ 0 or +Inf, never NaN (checkPoint), so their IEEE bit
	// patterns order as the values do.
	keys := f.evKeys[:0]
	for _, d := range f.dist2 {
		keys = append(keys, math.Float64bits(d))
	}
	tau := nthKey(keys, m-1)
	victims, ties := f.evVictims[:0], f.evTies[:0]
	for s, d := range f.dist2 {
		if k := math.Float64bits(d); k < tau {
			victims = append(victims, int32(s))
		} else if k == tau {
			ties = append(ties, int32(s))
		}
	}
	slices.SortFunc(ties, func(a, b int32) int { return strings.Compare(f.ids[a], f.ids[b]) })
	victims = append(victims, ties[:m-len(victims)]...)
	// Free in descending slot order so each move pulls from a live slot.
	slices.Sort(victims)
	for i := len(victims) - 1; i >= 0; i-- {
		f.heapRemoveAt(int(f.heapPos[victims[i]]))
		f.freeSlot(victims[i])
	}
	f.evKeys, f.evVictims, f.evTies = keys, victims[:0], ties[:0]
}

// nthKey returns the k-th smallest of keys (0-based), reordering keys: a
// quickselect with a median-of-three pivot and a three-way partition, so a
// run of equal keys — every rank is +Inf before the first selection — ends
// the search instead of degrading it.
func nthKey(keys []uint64, k int) uint64 {
	lo, hi := 0, len(keys)
	for {
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi // [lo,lt) < p, [lt,i) == p, [gt,hi) > p
		for i < gt {
			switch x := keys[i]; {
			case x < p:
				keys[i], keys[lt] = keys[lt], x
				lt++
				i++
			case x > p:
				gt--
				keys[i], keys[gt] = keys[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
}

// Update refreshes every candidate's cached distance against selections
// made since its last refresh.
//
// The refresh is sharded over the worker pool, then the heap invariant is
// restored. Each slot's refresh reads the immutable selected rows and
// writes only that slot's own cache, so the refreshed values are
// bit-identical for every worker count; the serial heapify that follows
// sees the same arrays either way. The workers are joined before Update
// returns.
func (f *FarthestPoint) Update() {
	if !f.allDirty && len(f.dirty) == 0 {
		return
	}
	var start time.Time
	if f.tel != nil {
		start = f.tel.Now()
	}
	f.rankArrivals(f.nsel)
	ranked := len(f.dirty)
	if f.allDirty {
		// A selection happened since the last refresh.
		f.refreshAll()
		ranked = len(f.ids)
	} else {
		// Between selections only the arrivals were stale: sift just those
		// back into place and leave the rest of the heap untouched.
		f.siftArrivals()
	}
	if f.tel != nil {
		f.tel.RecordSpan("dynim", "rank_refresh", start, f.tel.Now().Sub(start),
			"candidates", ranked)
	}
}

// Select implements Selector: repeatedly surface the farthest candidate via
// the lazy heap, fold it into the selected set, and continue. Cached ranks
// are upper bounds, so a popped candidate that is stale is refreshed and
// re-sifted; the first *fresh* candidate to hold the top is the true
// argmax under (distance, ID) — identical to the serial full-refresh scan.
func (f *FarthestPoint) Select(n int) []Point {
	var selStart time.Time
	if f.tel != nil {
		selStart = f.tel.Now()
	}
	var out []Point
	for len(out) < n && len(f.h) > 0 {
		// Rank the arrivals across the workers, then surface the argmax by
		// refreshing stale roots one log-depth sift at a time. If the pick
		// churns past the limit (a mostly-stale queue — cold burst, many
		// selections since the last sweep), one whole-store refresh and
		// heapify is cheaper than the rest of the sifts; every root is then
		// fresh. Both refresh to the same values, so the pick is the same.
		nSel := f.nsel
		f.rankArrivals(nSel)
		f.siftArrivals()
		rows := f.selRows
		for refreshed, limit := 0, len(f.h)/256+32; int(f.seenSel[f.h[0]]) < nSel; refreshed++ {
			if refreshed == limit {
				f.refreshAll()
				break
			}
			f.refreshSlot(f.h[0], nSel, rows)
			f.down(0)
		}
		s := f.h[0]
		f.heapRemoveAt(int(f.heapPos[s]))
		id := f.ids[s]
		coords := append([]float64(nil), f.coords[int(s)*f.dim:int(s+1)*f.dim]...)
		f.freeSlot(s)
		f.selected[id] = struct{}{}
		f.selRows = appendRow(f.selRows, f.nsel, coords)
		f.nsel++
		out = append(out, Point{ID: id, Coords: coords})
		// The new selection can tighten every remaining rank: the whole
		// store is dirty (the arrival list was emptied before the pick).
		f.allDirty = true
	}
	if f.tel != nil {
		f.tel.RecordSpan("dynim", "select", selStart, f.tel.Now().Sub(selStart),
			"want", n, "got", len(out))
		f.selCount.Get(f.tel, "dynim.selected_total").Add(int64(len(out)))
	}
	return out
}

// Len implements Selector.
func (f *FarthestPoint) Len() int { return len(f.ids) }

// QueueSet groups several independently-capped FarthestPoint queues, as the
// paper's Patch Selector does with five in-memory queues keyed by protein
// configuration. It is a Selector: route picks each added point's queue, and
// Select round-robins across the queues.
type QueueSet struct {
	dim     int
	cap     int
	route   func(Point) string
	workers int
	queues  map[string]*FarthestPoint
	order   []string
	tel     *telemetry.Telemetry
}

// NewQueueSet creates an empty set whose queues share dim and capacity;
// route names the queue each added point joins.
func NewQueueSet(dim, capacity int, route func(Point) string) *QueueSet {
	return &QueueSet{dim: dim, cap: capacity, route: route, queues: make(map[string]*FarthestPoint)}
}

// SetWorkers sets the rank-update fan-out (0 = GOMAXPROCS) on all current
// and future queues. Selection output is identical for every value.
func (q *QueueSet) SetWorkers(n int) {
	q.workers = n
	//lint:allow determinism -- applies the same knob to every queue; iteration order cannot affect state
	for _, fp := range q.queues {
		fp.SetWorkers(n)
	}
}

// SetTelemetry routes selection timings from all current and future queues
// to tel (nil disables instrumentation).
func (q *QueueSet) SetTelemetry(tel *telemetry.Telemetry) {
	q.tel = tel
	//lint:allow determinism -- applies the same knob to every queue; iteration order cannot affect state
	for _, fp := range q.queues {
		fp.SetTelemetry(tel)
	}
}

// Add implements Selector: it routes a candidate to its queue, creating the
// queue on first use. A point the queue would refuse creates no queue.
func (q *QueueSet) Add(p Point) error {
	if err := checkPoint(p, q.dim); err != nil {
		return err
	}
	queue := q.route(p)
	fp, ok := q.queues[queue]
	if !ok {
		fp = NewFarthestPoint(q.dim, q.cap)
		fp.SetWorkers(q.workers)
		fp.SetTelemetry(q.tel)
		q.queues[queue] = fp
		q.order = append(q.order, queue)
		sort.Strings(q.order)
	}
	return fp.Add(p)
}

// Select implements Selector: it round-robins one selection at a time across
// the queues (sorted by name for determinism) until n points are gathered or
// all queues drain.
func (q *QueueSet) Select(n int) []Point {
	var out []Point
	for len(out) < n {
		progress := false
		for _, name := range q.order {
			if len(out) >= n {
				break
			}
			if got := q.queues[name].Select(1); len(got) > 0 {
				out = append(out, got...)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return out
}

// Len implements Selector: it sums candidates across queues.
func (q *QueueSet) Len() int {
	total := 0
	//lint:allow determinism -- commutative sum; iteration order cannot affect the total
	for _, fp := range q.queues {
		total += fp.Len()
	}
	return total
}
