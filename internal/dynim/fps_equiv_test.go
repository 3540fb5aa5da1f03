package dynim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// oracleDist2 recomputes a candidate's squared distance to its nearest
// selected point from scratch, in the same arithmetic as foldRowsGo — four
// accumulators, products rounded before they are added — so the comparison
// is bitwise, not approximate.
func oracleDist2(q []float64, sel [][]float64) float64 {
	best := math.Inf(1)
	for _, row := range sel {
		var a0, a1, a2, a3 float64
		j := 0
		for ; j+4 <= len(q); j += 4 {
			d0 := q[j] - row[j]
			d1 := q[j+1] - row[j+1]
			d2 := q[j+2] - row[j+2]
			d3 := q[j+3] - row[j+3]
			a0 += float64(d0 * d0)
			a1 += float64(d1 * d1)
			a2 += float64(d2 * d2)
			a3 += float64(d3 * d3)
		}
		for ; j < len(q); j++ {
			d := q[j] - row[j]
			a0 += float64(d * d)
		}
		if acc := (a0 + a1) + (a2 + a3); acc < best {
			best = acc
		}
	}
	return best
}

// oracleFPS is an executable specification of farthest-point selection: a
// plain map of candidates, ranked from scratch on every pick by the shared
// kernel — no caches, no heap, no dirty sets. The production engine's
// selection sequence must match it exactly, and so must the set of queued
// candidates. With a capacity it also states the eviction rule: once the
// queue reaches capacity plus the cap/16 slack, rank from scratch and drop
// the lowest (dist², ID) down to capacity; an evicted ID may be offered
// again.
type oracleFPS struct {
	capacity int
	coords   map[string][]float64 // the queue
	taken    map[string]bool      // queued or already selected
	selected [][]float64
}

func newOracleFPS(capacity int) *oracleFPS {
	return &oracleFPS{capacity: capacity, coords: make(map[string][]float64), taken: make(map[string]bool)}
}

func (o *oracleFPS) add(id string, c []float64) {
	if o.taken[id] {
		return
	}
	o.taken[id] = true
	o.coords[id] = append([]float64(nil), c...)
	if o.capacity == 0 || len(o.coords) < o.capacity+max(1, o.capacity/16) {
		return
	}
	ids := make([]string, 0, len(o.coords))
	dist := make(map[string]float64, len(o.coords))
	for id, c := range o.coords {
		ids = append(ids, id)
		dist[id] = oracleDist2(c, o.selected)
	}
	sort.Slice(ids, func(i, j int) bool {
		if dist[ids[i]] != dist[ids[j]] {
			return dist[ids[i]] < dist[ids[j]]
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids[:len(ids)-o.capacity] {
		delete(o.coords, id)
		delete(o.taken, id)
	}
}

func (o *oracleFPS) selectN(n int) []string {
	var out []string
	for len(out) < n && len(o.coords) > 0 {
		bestID, bestD := "", math.Inf(-1)
		for id, c := range o.coords {
			d := oracleDist2(c, o.selected)
			if d > bestD || (d == bestD && id < bestID) || bestID == "" {
				bestID, bestD = id, d
			}
		}
		o.selected = append(o.selected, o.coords[bestID])
		delete(o.coords, bestID)
		out = append(out, bestID)
	}
	return out
}

// queued returns the oracle's queued IDs, sorted.
func (o *oracleFPS) queued() []string {
	ids := make([]string, 0, len(o.coords))
	for id := range o.coords {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// checkOracle asserts that f queues exactly the oracle's candidates and holds
// exactly its IDs as taken — its selected set and its queue together — so an
// eviction that drops the wrong victim, or a dedupe that frees the wrong ID
// for a re-offer or keeps an evicted one, fails at the operation that made it.
func checkOracle(t *testing.T, f *FarthestPoint, o *oracleFPS, where string) {
	t.Helper()
	if got, want := queuedIDs(f), o.queued(); !slices.Equal(got, want) {
		t.Fatalf("%s: queue holds %v, oracle %v", where, got, want)
	}
	taken := make(map[string]bool, len(f.ids)+len(f.selected))
	for _, id := range f.ids {
		taken[id] = true
	}
	for id := range f.selected {
		taken[id] = true
	}
	if len(taken) != len(o.taken) {
		t.Fatalf("%s: %d IDs taken, oracle %d", where, len(taken), len(o.taken))
	}
	for id := range o.taken {
		if !taken[id] {
			t.Fatalf("%s: %s is free, oracle has it taken", where, id)
		}
	}
}

// checkHeap asserts the index heap's invariants: h and heapPos are inverse
// over the live slots; the arrivals on the dirty list are the heap's tail,
// in creation order; and no entry sorts above its parent, except those
// arrivals, which wait unsifted until ranked.
func checkHeap(t *testing.T, f *FarthestPoint) {
	t.Helper()
	if len(f.h) != len(f.ids) || len(f.heapPos) != len(f.ids) {
		t.Fatalf("heap holds %d entries and %d positions for %d slots", len(f.h), len(f.heapPos), len(f.ids))
	}
	tail := len(f.h) - len(f.dirty)
	for j, s := range f.dirty {
		if int(f.heapPos[s]) != tail+j {
			t.Fatalf("arrival %d (slot %d) at heap position %d, want %d", j, s, f.heapPos[s], tail+j)
		}
	}
	for i, s := range f.h {
		if int(f.heapPos[s]) != i {
			t.Fatalf("h[%d] = slot %d, but heapPos[%d] = %d", i, s, s, f.heapPos[s])
		}
		if parent := (i - 1) / 2; i > 0 && i < tail && f.heapAbove(s, f.h[parent]) {
			t.Fatalf("heap position %d (%s, %v) sorts above its parent %d (%s, %v)",
				i, f.ids[s], f.dist2[s], parent, f.ids[f.h[parent]], f.dist2[f.h[parent]])
		}
	}
}

// TestPropertyFPSMatchesOracle fuzzes the full engine — dirty-set refresh,
// lazy heap, sweep fallback, batched eviction — against the from-scratch
// oracle: every selection, and after every operation the queued and taken
// IDs, must match, unbounded and at capacities small enough that the victim
// set decides what is left to select, and the heap invariants must hold
// after every operation. Every case runs with its fresh IDs in three
// orders: ascending, where each fresh offer is above the high-water mark and
// takes Add's one-comparison path; descending, where each one after the
// first is below it and takes the exact fallback; and shuffled, which mixes
// the two (a fresh ID is fast only when it is a new maximum). The clustered
// case draws every
// point within 1e-3 of one of three far-apart centres, so after three picks
// each selection sits a tiny gap from an earlier one and far from the rest —
// the traffic the removed triangle-inequality prune skipped rows on,
// evaluated in full. The lattice case draws every coordinate from {0, 1, 2},
// so dist² ties are common and the eviction threshold usually falls inside a
// tie group that only IDs can split.
func TestPropertyFPSMatchesOracle(t *testing.T) {
	withGoBody(t, testPropertyFPSMatchesOracle)
}

func testPropertyFPSMatchesOracle(t *testing.T) {
	const dim = 5 // odd, so the kernel's tail runs
	gauss := func(rng *rand.Rand, c []float64) {
		for k := range c {
			c[k] = rng.NormFloat64()
		}
	}
	clustered := func(rng *rand.Rand, c []float64) {
		centre := float64(rng.Intn(3)) * 10
		for k := range c {
			c[k] = centre + 1e-3*rng.NormFloat64()
		}
	}
	lattice := func(rng *rand.Rand, c []float64) {
		for k := range c {
			c[k] = float64(rng.Intn(3))
		}
	}
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			for _, capacity := range []int{0, 16, 64} {
				testFPSMatchesOracle(t, dim, capacity, gauss, order)
			}
			testFPSMatchesOracle(t, dim, 0, clustered, order)
			for _, capacity := range []int{16, 64} {
				testFPSMatchesOracle(t, dim, capacity, lattice, order)
			}
		})
	}
}

// testFPSMatchesOracle runs one case with its fresh IDs in the named order.
func testFPSMatchesOracle(t *testing.T, dim, capacity int, draw func(*rand.Rand, []float64), order string) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perm := make([]int, 10000) // the i-th fresh ID is p%04d of perm[i]
		for i := range perm {
			perm[i] = i
		}
		switch order {
		case "descending":
			slices.Reverse(perm)
		case "shuffled":
			shuffle := rand.New(rand.NewSource(-seed))
			shuffle.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		name := func(i int) string { return fmt.Sprintf("p%04d", perm[i]) }
		fp := NewFarthestPoint(dim, capacity)
		oracle := newOracleFPS(capacity)
		next := 0
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1: // add burst, with occasional duplicate re-offers
				for i := rng.Intn(30); i >= 0; i-- {
					id := name(next)
					if rng.Intn(10) == 0 && next > 0 {
						id = name(rng.Intn(next))
					} else {
						next++
					}
					c := make([]float64, dim)
					draw(rng, c)
					if err := fp.Add(Point{ID: id, Coords: c}); err != nil {
						t.Fatal(err)
					}
					oracle.add(id, c)
					checkHeap(t, fp)
					checkOracle(t, fp, oracle, fmt.Sprintf("cap %d seed %d op %d add %s", capacity, seed, op, id))
				}
			case 2: // off-path refresh must never change what gets selected
				fp.Update()
			case 3:
				n := 1 + rng.Intn(4)
				got := fp.Select(n)
				want := oracle.selectN(n)
				if len(got) != len(want) {
					t.Fatalf("cap %d seed %d op %d: got %d selections, oracle %d", capacity, seed, op, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i] {
						t.Fatalf("cap %d seed %d op %d: selection[%d] = %s, oracle %s",
							capacity, seed, op, i, got[i].ID, want[i])
					}
				}
			}
			checkHeap(t, fp)
			checkOracle(t, fp, oracle, fmt.Sprintf("cap %d seed %d op %d", capacity, seed, op))
		}
	}
}

// TestFPSUpdatePlacementInvariant pins that the dirty-set refresh is
// behavior-neutral: running the same capped Add/Select scenario with extra
// Update calls injected at arbitrary points must produce identical
// selections and, after every operation, identical queues — refresh timing
// can change how much work happens, never what is chosen or evicted.
func TestFPSUpdatePlacementInvariant(t *testing.T) {
	run := func(seed int64, updateMask int64) [][]string {
		rng := rand.New(rand.NewSource(seed))
		fp := NewFarthestPoint(3, 64) // small cap: evictions fire constantly
		var trace [][]string          // per operation: the selections, then the queue
		next := 0
		for op := 0; op < 50; op++ {
			if updateMask&(1<<uint(op%63)) != 0 {
				fp.Update()
				checkHeap(t, fp)
			}
			switch rng.Intn(3) {
			case 0, 1:
				for i := rng.Intn(25); i >= 0; i-- {
					fp.Add(Point{
						ID:     fmt.Sprintf("p%04d", next),
						Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
					})
					checkHeap(t, fp)
					next++
				}
			case 2:
				trace = append(trace, idsOf(fp.Select(1+rng.Intn(3))))
				checkHeap(t, fp)
			}
			trace = append(trace, queuedIDs(fp))
		}
		return trace
	}
	for seed := int64(1); seed <= 10; seed++ {
		base := run(seed, 0)
		for _, mask := range []int64{^int64(0), 0x5555555555555555, 1 << 7} {
			got := run(seed, mask)
			if len(got) != len(base) {
				t.Fatalf("seed %d mask %x: %d trace entries vs %d", seed, mask, len(got), len(base))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], base[i]) {
					t.Fatalf("seed %d mask %x: trace[%d] = %v, want %v", seed, mask, i, got[i], base[i])
				}
			}
		}
	}
}

// TestFPSAddAllocatesNothing counts, not times: a capped queue sizes its
// slot store, heap and arrival list on its first admission, so below its
// eviction mark an Add of a point the caller built allocates nothing —
// before the first selection, when an arrival sifts at once, and after it,
// when the arrival joins the dirty list. Each count is over a batch of adds,
// so an occasional slab re-growth cannot round down to zero, and the least
// count of three fresh queues is kept: a re-growth recurs at the same
// lengths in every queue, a stray allocation elsewhere in the process does
// not.
func TestFPSAddAllocatesNothing(t *testing.T) {
	const capacity, batch = 512, 100
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1+4*batch) // AllocsPerRun adds one warm-up call
	for i := range pts {
		pts[i] = Point{ID: fmt.Sprintf("p%05d", i), Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	before, after := math.Inf(1), math.Inf(1)
	for range 3 {
		fp := NewFarthestPoint(3, capacity)
		fp.SetWorkers(1)
		next := 0
		add := func() {
			for range batch {
				if err := fp.Add(pts[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		if err := fp.Add(pts[0]); err != nil { // the first admission sizes the store
			t.Fatal(err)
		}
		next++
		before = min(before, testing.AllocsPerRun(1, add))
		fp.Select(1)
		after = min(after, testing.AllocsPerRun(1, add))
		if want := len(pts) - 1; fp.Len() != want {
			t.Fatalf("queue holds %d, want %d: an eviction ran inside the count", fp.Len(), want)
		}
	}
	if before != 0 {
		t.Errorf("%d adds before any selection allocate %v times, want 0", batch, before)
	}
	if after != 0 {
		t.Errorf("%d adds after a selection allocate %v times, want 0", batch, after)
	}
}

// TestFPSEvictionAllocatesNoSlices counts, not times: at steady state an
// eviction makes no slices — the rank keys, the victims and the
// tie group live in scratch reused across evictions, and freeing victims in
// slot order sorts in place.
func TestFPSEvictionAllocatesNoSlices(t *testing.T) {
	const capacity, evictions = 512, 20
	slack := capacity / 16
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, capacity+(evictions+4)*slack)
	for i := range pts {
		pts[i] = Point{ID: fmt.Sprintf("p%05d", i), Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	fp := NewFarthestPoint(3, capacity)
	fp.SetWorkers(1)
	add := func(ps []Point) {
		for _, p := range ps {
			if err := fp.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(pts[:capacity])
	fp.Select(8)
	warm := capacity + 4*slack // four evictions grow the scratch
	add(pts[capacity:warm])
	queued := fp.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	add(pts[warm:])
	runtime.ReadMemStats(&after)
	if victims := len(pts) - warm - (fp.Len() - queued); victims != evictions*slack {
		t.Fatalf("measured adds evicted %d, want %d evictions of %d", victims, evictions, slack)
	}
	// The rank refresh's parallel.For costs two closures a call; a victim
	// slice, a slot-order copy or a sort swapper would each add one more.
	if n := after.Mallocs - before.Mallocs; n >= 3*evictions {
		t.Errorf("%d evictions made %d allocations, want fewer than three each", evictions, n)
	}
}
