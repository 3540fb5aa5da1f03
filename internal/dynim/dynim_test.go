package dynim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func fp2(t *testing.T, capacity int) *FarthestPoint {
	t.Helper()
	return NewFarthestPoint(2, capacity)
}

func TestFPSGreedyFarthestOrder(t *testing.T) {
	f := fp2(t, 0)
	// Points on a line: 0, 1, 10. First selection has no reference set, so
	// ties (+Inf) break by ID; then the farthest-from-selected rule applies.
	pts := []Point{
		{ID: "a", Coords: []float64{0, 0}},
		{ID: "b", Coords: []float64{1, 0}},
		{ID: "c", Coords: []float64{10, 0}},
	}
	for _, p := range pts {
		if err := f.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Select(3)
	ids := []string{got[0].ID, got[1].ID, got[2].ID}
	// First: "a" (ID tie-break at +Inf). Then farthest from {a} is "c"
	// (d=10 vs 1). Then "b".
	if !reflect.DeepEqual(ids, []string{"a", "c", "b"}) {
		t.Errorf("selection order = %v", ids)
	}
}

func TestFPSSelectionIsDiverse(t *testing.T) {
	// Selecting k from two tight clusters must cover both clusters before
	// re-visiting one — the defining property of farthest-point sampling.
	f := fp2(t, 0)
	for i := 0; i < 20; i++ {
		f.Add(Point{ID: fmt.Sprintf("L%02d", i), Coords: []float64{float64(i) * 0.001, 0}})
		f.Add(Point{ID: fmt.Sprintf("R%02d", i), Coords: []float64{100 + float64(i)*0.001, 0}})
	}
	got := f.Select(2)
	if len(got) != 2 {
		t.Fatal("short selection")
	}
	left := got[0].Coords[0] < 50
	right := got[1].Coords[0] >= 50
	if left == (got[1].Coords[0] < 50) {
		t.Errorf("both selections from the same cluster: %v %v", got[0], got[1])
	}
	_ = right
}

func TestFPSAddDimensionMismatch(t *testing.T) {
	f := fp2(t, 0)
	if err := f.Add(Point{ID: "x", Coords: []float64{1, 2, 3}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestAddRejectsNonFiniteCoordinates: a NaN or ±Inf coordinate is refused by
// both samplers before it can take a slot, a bin or the ID — the same ID with
// finite coordinates is accepted afterwards and is what gets selected.
func TestAddRejectsNonFiniteCoordinates(t *testing.T) {
	binned, err := NewBinned([]BinDim{{0, 1, 4}, {0, 1, 4}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []struct {
		name string
		s    Selector
	}{{"FarthestPoint", NewFarthestPoint(2, 0)}, {"Binned", binned}} {
		for _, tc := range []struct {
			name   string
			coords []float64
		}{
			{"NaN first", []float64{math.NaN(), 0.5}},
			{"NaN last", []float64{0.5, math.NaN()}},
			{"+Inf", []float64{math.Inf(1), 0.5}},
			{"-Inf", []float64{0.5, math.Inf(-1)}},
		} {
			if err := sel.s.Add(Point{ID: "p", Coords: tc.coords}); err == nil {
				t.Errorf("%s: %s accepted", sel.name, tc.name)
			}
			if n := sel.s.Len(); n != 0 {
				t.Errorf("%s: %s: Len = %d after a refused Add", sel.name, tc.name, n)
			}
		}
		if err := sel.s.Add(Point{ID: "p", Coords: []float64{0.5, 0.5}}); err != nil {
			t.Errorf("%s: finite re-offer of a refused ID: %v", sel.name, err)
		}
		if got := sel.s.Select(1); len(got) != 1 || got[0].ID != "p" {
			t.Errorf("%s: Select = %v, want p", sel.name, got)
		}
	}
}

func TestFPSDuplicateIDsIgnored(t *testing.T) {
	f := fp2(t, 0)
	f.Add(Point{ID: "p", Coords: []float64{0, 0}})
	f.Add(Point{ID: "p", Coords: []float64{9, 9}})
	if f.Len() != 1 {
		t.Errorf("Len = %d after duplicate add", f.Len())
	}
	got := f.Select(1)
	if got[0].Coords[0] != 0 {
		t.Error("duplicate overwrote original")
	}
	// Re-adding a selected ID is also ignored.
	f.Add(Point{ID: "p", Coords: []float64{5, 5}})
	if f.Len() != 0 {
		t.Errorf("selected ID re-queued; Len = %d", f.Len())
	}
	// Below the high-water mark (the greatest ID admitted) Add checks an
	// offer exactly instead of by one comparison: a never-seen ID is queued,
	// and queueing it leaves the mark where it was; a selected ID is
	// ignored; an evicted ID is queued again.
	t.Run("never seen", func(t *testing.T) {
		f := fp2(t, 0)
		f.Add(Point{ID: "m", Coords: []float64{0, 0}})
		f.Add(Point{ID: "a", Coords: []float64{1, 0}})
		// Had "a" lowered the mark, "m" would now pass as new.
		f.Add(Point{ID: "m", Coords: []float64{2, 0}})
		if got := queuedIDs(f); !reflect.DeepEqual(got, []string{"a", "m"}) {
			t.Errorf("queued = %v, want [a m]", got)
		}
	})
	t.Run("selected", func(t *testing.T) {
		f := fp2(t, 0)
		f.Add(Point{ID: "a", Coords: []float64{0, 0}})
		f.Add(Point{ID: "m", Coords: []float64{1, 0}})
		if got := idsOf(f.Select(1)); !reflect.DeepEqual(got, []string{"a"}) {
			t.Fatalf("selected %v, want [a]", got)
		}
		f.Add(Point{ID: "a", Coords: []float64{9, 9}})
		if got := queuedIDs(f); !reflect.DeepEqual(got, []string{"m"}) {
			t.Errorf("queued = %v after re-offering selected a, want [m]", got)
		}
	})
	t.Run("evicted", func(t *testing.T) {
		f := fp2(t, 1) // slack 1: the second queued point triggers eviction
		f.Add(Point{ID: "a", Coords: []float64{0, 0}})
		f.Select(1)
		f.Add(Point{ID: "b", Coords: []float64{1, 0}})
		f.Add(Point{ID: "c", Coords: []float64{9, 0}}) // evicts b, the nearer
		if got := queuedIDs(f); !reflect.DeepEqual(got, []string{"c"}) {
			t.Fatalf("queued = %v, want b evicted", got)
		}
		// Offered again, farther out, b is queued and c is the one evicted.
		f.Add(Point{ID: "b", Coords: []float64{20, 0}})
		if got := queuedIDs(f); !reflect.DeepEqual(got, []string{"b"}) {
			t.Errorf("queued = %v after re-offering evicted b, want [b]", got)
		}
	})
}

func TestFPSCapacityEvictsLeastNovel(t *testing.T) {
	f := fp2(t, 3)
	// Select one reference point first so ranks are meaningful.
	f.Add(Point{ID: "ref", Coords: []float64{0, 0}})
	f.Select(1)
	// Add three candidates at distances 1, 5, 9, then refresh ranks.
	f.Add(Point{ID: "near", Coords: []float64{1, 0}})
	f.Add(Point{ID: "mid", Coords: []float64{5, 0}})
	f.Add(Point{ID: "far", Coords: []float64{9, 0}})
	f.Update()
	// A fourth add overflows the cap: the least novel ("near") must go.
	f.Add(Point{ID: "new", Coords: []float64{7, 0}})
	if got := queuedIDs(f); !reflect.DeepEqual(got, []string{"far", "mid", "new"}) {
		t.Errorf("queued after eviction = %v, want near evicted", got)
	}
}

func TestFPSLenAndSelected(t *testing.T) {
	f := fp2(t, 0)
	for i := 0; i < 5; i++ {
		f.Add(Point{ID: fmt.Sprintf("p%d", i), Coords: []float64{float64(i), 0}})
	}
	if f.Len() != 5 {
		t.Errorf("Len = %d", f.Len())
	}
	sel := f.Select(2)
	if f.Len() != 3 || f.nsel != 2 {
		t.Errorf("after select: Len=%d selected=%d", f.Len(), f.nsel)
	}
	var rows []float64
	for i, p := range sel {
		rows = appendRow(rows, i, p.Coords)
	}
	if !reflect.DeepEqual(f.selRows, rows) {
		t.Error("selected rows disagree with Select() return")
	}
}

func TestFPSSelectMoreThanAvailable(t *testing.T) {
	f := fp2(t, 0)
	f.Add(Point{ID: "only", Coords: []float64{1, 1}})
	got := f.Select(10)
	if len(got) != 1 {
		t.Errorf("Select(10) with 1 candidate = %d", len(got))
	}
	if got2 := f.Select(1); len(got2) != 0 {
		t.Errorf("Select on empty = %v", got2)
	}
}

func TestPropertyFPSCacheEqualsRecompute(t *testing.T) {
	// The incremental rank cache must agree exactly with a from-scratch
	// recomputation — the correctness core of the caching scheme.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fp := NewFarthestPoint(3, 0)
		var all []Point
		for i := 0; i < 30; i++ {
			p := Point{ID: fmt.Sprintf("p%02d", i), Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
			all = append(all, p)
			fp.Add(p)
		}
		// Interleave selects and adds.
		var selected []Point
		selected = append(selected, fp.Select(3)...)
		for i := 30; i < 40; i++ {
			p := Point{ID: fmt.Sprintf("p%02d", i), Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
			all = append(all, p)
			fp.Add(p)
		}
		selected = append(selected, fp.Select(2)...)
		fp.Update()
		// Recompute each remaining candidate's squared distance from scratch
		// and compare with the cached value (the cache is squared end-to-end;
		// sqrt only happens at API boundaries).
		fp.mu.Lock()
		defer fp.mu.Unlock()
		for slot, got := range fp.dist2 {
			coords := fp.coords[slot*fp.dim : (slot+1)*fp.dim]
			want := math.Inf(1)
			for _, s := range selected {
				d := 0.0
				for k := range s.Coords {
					dd := s.Coords[k] - coords[k]
					d += dd * dd
				}
				if d < want {
					want = d
				}
			}
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQueueSetRoutesAndRoundRobins(t *testing.T) {
	// Two protein-configuration queues, as in the paper's five-queue setup.
	qs := NewQueueSet(2, 0, func(p Point) string {
		if p.ID[0] == 'a' {
			return "ras-only"
		}
		return "ras-raf"
	})
	for i := 0; i < 5; i++ {
		qs.Add(Point{ID: fmt.Sprintf("a%d", i), Coords: []float64{float64(i), 0}})
		qs.Add(Point{ID: fmt.Sprintf("b%d", i), Coords: []float64{float64(i), 5}})
	}
	if qs.Len() != 10 {
		t.Errorf("Len = %d", qs.Len())
	}
	if !reflect.DeepEqual(qs.order, []string{"ras-only", "ras-raf"}) {
		t.Errorf("queues = %v", qs.order)
	}
	sel := qs.Select(4)
	if len(sel) != 4 {
		t.Fatalf("Select(4) = %d", len(sel))
	}
	// Round-robin: alternating queues.
	fromA := 0
	for _, p := range sel {
		if p.ID[0] == 'a' {
			fromA++
		}
	}
	if fromA != 2 {
		t.Errorf("round-robin picked %d from queue A, want 2", fromA)
	}
	if got := qs.queues["ras-only"].Len(); got != 3 {
		t.Errorf("ras-only holds %d, want 3 remaining", got)
	}
}

func TestQueueSetExhaustsGracefully(t *testing.T) {
	qs := NewQueueSet(1, 0, func(Point) string { return "q" })
	qs.Add(Point{ID: "only", Coords: []float64{1}})
	got := qs.Select(5)
	if len(got) != 1 {
		t.Errorf("Select past exhaustion = %d", len(got))
	}
}

// ---------------------------------------------------------------------------
// Binned sampler

func dims3() []BinDim {
	return []BinDim{{0, 10, 5}, {0, 1, 4}, {-5, 5, 10}}
}

func TestBinnedValidation(t *testing.T) {
	if _, err := NewBinned(nil, 0.5, 1); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewBinned([]BinDim{{0, 0, 4}}, 0.5, 1); err == nil {
		t.Error("hi<=lo accepted")
	}
	if _, err := NewBinned([]BinDim{{0, 1, 0}}, 0.5, 1); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewBinned(dims3(), 1.5, 1); err == nil {
		t.Error("balance > 1 accepted")
	}
	// The select index is dense over the joint bins: 4096² is refused, as is
	// a product that would overflow int; 4096×4096 exactly at the bound is not.
	if _, err := NewBinned([]BinDim{{0, 1, 4096}, {0, 1, 4097}}, 0.5, 1); err == nil {
		t.Error("joint-bin count above 1<<24 accepted")
	}
	if _, err := NewBinned([]BinDim{{0, 1, 1 << 40}, {0, 1, 1 << 40}}, 0.5, 1); err == nil {
		t.Error("overflowing joint-bin count accepted")
	}
	if _, err := NewBinned([]BinDim{{0, 1, 4096}, {0, 1, 4096}}, 0.5, 1); err != nil {
		t.Errorf("1<<24 joint bins refused: %v", err)
	}
}

func TestBinnedPureImportancePicksSparseBin(t *testing.T) {
	b, err := NewBinned([]BinDim{{0, 10, 10}}, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Crowd bin 0 with 50 candidates, put one candidate in bin 9.
	for i := 0; i < 50; i++ {
		b.Add(Point{ID: fmt.Sprintf("crowd%02d", i), Coords: []float64{0.5}})
	}
	b.Add(Point{ID: "rare", Coords: []float64{9.5}})
	got := b.Select(1)
	if got[0].ID != "rare" {
		t.Errorf("pure importance selected %q, want rare", got[0].ID)
	}
}

func TestBinnedBalanceZeroIsUniform(t *testing.T) {
	b, err := NewBinned([]BinDim{{0, 10, 10}}, 0.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 90 in bin 0, 10 in bin 9: pure random must select mostly from bin 0.
	for i := 0; i < 90; i++ {
		b.Add(Point{ID: fmt.Sprintf("a%02d", i), Coords: []float64{0.5}})
	}
	for i := 0; i < 10; i++ {
		b.Add(Point{ID: fmt.Sprintf("b%02d", i), Coords: []float64{9.5}})
	}
	fromA := 0
	for _, p := range b.Select(50) {
		if p.ID[0] == 'a' {
			fromA++
		}
	}
	if fromA < 35 { // E[fromA] ≈ 45 under uniformity; <35 is ~4σ off
		t.Errorf("uniform selection drew only %d/50 from the 90%% bin", fromA)
	}
}

func TestBinnedSelectRemovesAndExhausts(t *testing.T) {
	b, _ := NewBinned(dims3(), 0.7, 3)
	for i := 0; i < 8; i++ {
		b.Add(Point{ID: fmt.Sprintf("f%d", i), Coords: []float64{float64(i), 0.5, 0}})
	}
	got := b.Select(20)
	if len(got) != 8 || b.Len() != 0 {
		t.Errorf("Select = %d, Len = %d", len(got), b.Len())
	}
	seen := map[string]bool{}
	for _, p := range got {
		if seen[p.ID] {
			t.Errorf("duplicate selection %q", p.ID)
		}
		seen[p.ID] = true
	}
	if more := b.Select(1); len(more) != 0 {
		t.Errorf("Select on empty = %v", more)
	}
}

func TestBinnedOccupancyCountsAllOffered(t *testing.T) {
	b, _ := NewBinned([]BinDim{{0, 10, 10}}, 1, 1)
	for i := 0; i < 5; i++ {
		b.Add(Point{ID: fmt.Sprintf("p%d", i), Coords: []float64{3.5}})
	}
	b.Select(2)
	// Occupancy is density-of-seen, not density-of-queued: still 5.
	if occ := occupancy(b, []float64{3.5}); occ != 5 {
		t.Errorf("occupancy = %d, want 5", occ)
	}
}

func TestBinnedOutOfRangeClamps(t *testing.T) {
	b, _ := NewBinned([]BinDim{{0, 10, 10}}, 1, 1)
	if err := b.Add(Point{ID: "low", Coords: []float64{-99}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Point{ID: "high", Coords: []float64{+99}}); err != nil {
		t.Fatal(err)
	}
	if occupancy(b, []float64{-99}) != 1 || occupancy(b, []float64{99}) != 1 {
		t.Error("clamped bins not counted")
	}
}

// TestBinnedDimMismatchAndDuplicates: a wrong-dimension point is refused;
// Binned keeps no ID set, so a re-offered ID is queued again.
func TestBinnedDimMismatchAndDuplicates(t *testing.T) {
	b, _ := NewBinned(dims3(), 1, 1)
	if err := b.Add(Point{ID: "bad", Coords: []float64{1}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	b.Add(Point{ID: "dup", Coords: []float64{1, 0.5, 0}})
	b.Add(Point{ID: "dup", Coords: []float64{2, 0.5, 0}})
	if b.Len() != 2 {
		t.Errorf("Len after a re-offer = %d, want 2", b.Len())
	}
}

func TestBinnedDeterministicWithSeed(t *testing.T) {
	run := func() []string {
		b, _ := NewBinned(dims3(), 0.5, 99)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			b.Add(Point{ID: fmt.Sprintf("f%02d", i),
				Coords: []float64{rng.Float64() * 10, rng.Float64(), rng.Float64()*10 - 5}})
		}
		return idsOf(b.Select(20))
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different selections")
	}
}

func TestPropertyBinnedConservation(t *testing.T) {
	// Every added point is eventually selected exactly once; none invented.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBinned([]BinDim{{0, 1, 7}, {0, 1, 7}}, rng.Float64(), seed)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(60)
		want := map[string]bool{}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("p%03d", i)
			want[id] = true
			b.Add(Point{ID: id, Coords: []float64{rng.Float64(), rng.Float64()}})
		}
		got := map[string]bool{}
		for {
			sel := b.Select(7)
			if len(sel) == 0 {
				break
			}
			for _, p := range sel {
				if got[p.ID] {
					return false // duplicate
				}
				got[p.ID] = true
			}
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func idsOf(ps []Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

// queuedIDs returns the IDs f holds in its queue, sorted.
func queuedIDs(f *FarthestPoint) []string {
	ids := slices.Clone(f.ids)
	slices.Sort(ids)
	return ids
}

// occupancy returns the occupancy count of the joint bin containing coords.
func occupancy(b *Binned, coords []float64) int {
	if st := b.bins[b.binOf(coords)]; st != nil {
		return st.occupancy
	}
	return 0
}
