package dynim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// selection sequence must match it exactly. With a capacity it also states
// the eviction rule: once the queue reaches capacity plus the cap/16 slack,
// rank from scratch and drop the lowest (dist², ID) down to capacity; an
// evicted ID may be offered again.
type oracleFPS struct {
	capacity int
	coords   map[string][]float64
	taken    map[string]bool // queued or already selected
	selected [][]float64
	events   []Event // the journal the engine must write; Seq is not compared
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
	o.events = append(o.events, Event{Kind: "add", ID: id})
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
	for _, id := range ids[:len(ids)-o.capacity] { // least novel first
		delete(o.coords, id)
		delete(o.taken, id)
		o.events = append(o.events, Event{Kind: "evict", ID: id})
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
		o.events = append(o.events, Event{Kind: "select", ID: bestID})
	}
	return out
}

// checkHeap asserts the index heap's invariants: h and heapPos are inverse
// over the live slots; the arrivals on the dirty list are the heap's tail,
// in creation order; and while the heap is not dirty no entry sorts above
// its parent, except those arrivals, which wait unsifted until ranked.
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
		if parent := (i - 1) / 2; i > 0 && i < tail && !f.heapDirty && f.heapAbove(s, f.h[parent]) {
			t.Fatalf("heap position %d (%s, %v) sorts above its parent %d (%s, %v)",
				i, f.ids[s], f.dist2[s], parent, f.ids[f.h[parent]], f.dist2[f.h[parent]])
		}
	}
}

// TestPropertyFPSMatchesOracle fuzzes the full engine — dirty-set refresh,
// lazy heap, eager fallback, batched eviction — against the from-scratch
// oracle: the whole journal (adds, selections, and evictions in
// least-novel-first order) must match, unbounded and at capacities small
// enough that the victim set decides what is left to select, and the heap
// invariants must hold after every operation. The clustered case draws every
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
	for _, capacity := range []int{0, 16, 64} {
		testFPSMatchesOracle(t, dim, capacity, gauss)
	}
	testFPSMatchesOracle(t, dim, 0, clustered)
	lattice := func(rng *rand.Rand, c []float64) {
		for k := range c {
			c[k] = float64(rng.Intn(3))
		}
	}
	for _, capacity := range []int{16, 64} {
		testFPSMatchesOracle(t, dim, capacity, lattice)
	}
}

func testFPSMatchesOracle(t *testing.T, dim, capacity int, draw func(*rand.Rand, []float64)) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fp := NewFarthestPoint(dim, capacity)
		oracle := newOracleFPS(capacity)
		next := 0
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1: // add burst, with occasional duplicate re-offers
				for i := rng.Intn(30); i >= 0; i-- {
					id := fmt.Sprintf("p%04d", next)
					if rng.Intn(10) == 0 && next > 0 {
						id = fmt.Sprintf("p%04d", rng.Intn(next))
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
			journal := fp.History()
			if len(journal) != len(oracle.events) {
				t.Fatalf("cap %d seed %d op %d: journal holds %d events, oracle %d",
					capacity, seed, op, len(journal), len(oracle.events))
			}
			for i, e := range oracle.events {
				if journal[i].Kind != e.Kind || journal[i].ID != e.ID {
					t.Fatalf("cap %d seed %d op %d: journal[%d] = %s %s, oracle %s %s",
						capacity, seed, op, i, journal[i].Kind, journal[i].ID, e.Kind, e.ID)
				}
			}
		}
	}
}

// TestFPSUpdatePlacementInvariant pins that the dirty-set refresh is
// behavior-neutral: running the same capped Add/Select scenario with extra
// Update calls injected at arbitrary points must produce an identical
// journal (selections AND evictions) — refresh timing can change how much
// work happens, never what is chosen.
func TestFPSUpdatePlacementInvariant(t *testing.T) {
	run := func(seed int64, updateMask int64) []Event {
		rng := rand.New(rand.NewSource(seed))
		fp := NewFarthestPoint(3, 64) // small cap: evictions fire constantly
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
				fp.Select(1 + rng.Intn(3))
				checkHeap(t, fp)
			}
		}
		return fp.History()
	}
	for seed := int64(1); seed <= 10; seed++ {
		base := run(seed, 0)
		for _, mask := range []int64{^int64(0), 0x5555555555555555, 1 << 7} {
			got := run(seed, mask)
			if len(got) != len(base) {
				t.Fatalf("seed %d mask %x: journal length %d vs %d", seed, mask, len(got), len(base))
			}
			for i := range got {
				if got[i].Kind != base[i].Kind || got[i].ID != base[i].ID {
					t.Fatalf("seed %d mask %x: journal[%d] = %s %s, want %s %s",
						seed, mask, i, got[i].Kind, got[i].ID, base[i].Kind, base[i].ID)
				}
			}
		}
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
	fp.DisableJournal()
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
	seq := fp.journal.seq // advances per add and per victim, journal off or on
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	add(pts[warm:])
	runtime.ReadMemStats(&after)
	if victims := fp.journal.seq - seq - int64(len(pts)-warm); victims != evictions*int64(slack) {
		t.Fatalf("measured adds evicted %d, want %d evictions of %d", victims, evictions, slack)
	}
	// The rank refresh's parallel.For costs two closures a call; a victim
	// slice, a slot-order copy or a sort swapper would each add one more.
	if n := after.Mallocs - before.Mallocs; n >= 3*evictions {
		t.Errorf("%d evictions made %d allocations, want fewer than three each", evictions, n)
	}
}
