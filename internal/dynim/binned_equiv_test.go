package dynim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// scanBinned is the sampler as it was before Select was indexed: the same
// draws, with the two per-pick scans over the non-empty-bin map kept
// verbatim. It is the oracle the heap and the Fenwick tree must reproduce.
type scanBinned struct {
	binOf     func([]float64) int
	balance   float64
	rng       *rand.Rand
	occupancy map[int]int
	queued    map[int][]Point
	total     int
}

func newScanBinned(t *testing.T, dims []BinDim, balance float64, seed int64) *scanBinned {
	t.Helper()
	geom, err := NewBinned(dims, balance, seed) // binOf only
	if err != nil {
		t.Fatal(err)
	}
	return &scanBinned{
		binOf:     geom.binOf,
		balance:   balance,
		rng:       rand.New(rand.NewSource(seed)),
		occupancy: make(map[int]int),
		queued:    make(map[int][]Point),
	}
}

func (b *scanBinned) add(p Point) {
	bin := b.binOf(p.Coords)
	b.occupancy[bin]++
	b.queued[bin] = append(b.queued[bin], p)
	b.total++
}

func (b *scanBinned) selectN(n int) []Point {
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
		out = append(out, p)
	}
	return out
}

func (b *scanBinned) leastOccupiedNonEmpty() int {
	best, bestOcc := -1, 0
	for bin := range b.queued {
		occ := b.occupancy[bin]
		if best < 0 || occ < bestOcc || (occ == bestOcc && bin < best) {
			best, bestOcc = bin, occ
		}
	}
	return best
}

func (b *scanBinned) randomNonEmpty() int {
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

// TestBinnedSelectMatchesScanOracle: interleaved Add/Select bursts must
// return the scan sampler's ID sequence and leave the RNG where it leaves
// it (same draws, same order), at every balance and over binnings from one
// dimension to the paper's 20³, clamped out-of-range coordinates included.
func TestBinnedSelectMatchesScanOracle(t *testing.T) {
	binnings := [][]BinDim{
		{{0, 1, 10}},
		{{0, 1, 7}, {0, 1, 7}},
		{{0, 1, 20}, {0, 1, 20}, {0, 1, 20}},
	}
	for _, dims := range binnings {
		for _, balance := range []float64{0, 0.8, 1} {
			for seed := int64(1); seed <= 25; seed++ {
				b, err := NewBinned(dims, balance, seed)
				if err != nil {
					t.Fatal(err)
				}
				oracle := newScanBinned(t, dims, balance, seed)
				rng := rand.New(rand.NewSource(seed * 977))
				next := 0
				for op := 0; op < 60; op++ {
					if rng.Intn(3) > 0 {
						for i := rng.Intn(40); i >= 0; i-- {
							c := make([]float64, len(dims))
							for k := range c {
								// [-0.25, 1.25): a sixth of each tail clamps.
								c[k] = rng.Float64()*1.5 - 0.25
								if rng.Intn(4) == 0 {
									c[k] = rng.Float64() * 0.1 // a crowded corner
								}
							}
							p := Point{ID: fmt.Sprintf("f%05d", next), Coords: c}
							next++
							if err := b.Add(p); err != nil {
								t.Fatal(err)
							}
							oracle.add(p)
						}
						continue
					}
					n := 1 + rng.Intn(30) // bursts long enough to empty bins
					got, want := b.Select(n), oracle.selectN(n)
					if len(got) != len(want) {
						t.Fatalf("dims %v balance %v seed %d op %d: %d selections, oracle %d",
							dims, balance, seed, op, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID {
							t.Fatalf("dims %v balance %v seed %d op %d: selection[%d] = %s, oracle %s",
								dims, balance, seed, op, i, got[i].ID, want[i].ID)
						}
					}
				}
				if b.Len() != oracle.total {
					t.Fatalf("dims %v balance %v seed %d: %d queued, oracle %d", dims, balance, seed, b.Len(), oracle.total)
				}
				if got, want := b.rng.Int63(), oracle.rng.Int63(); got != want {
					t.Fatalf("dims %v balance %v seed %d: RNG diverged from the oracle's", dims, balance, seed)
				}
			}
		}
	}
}

// TestBinnedSelectReleasesPoppedPoint: a selected point shares no memory
// with the sampler, so the sampler does not pin it — bins queue indices,
// and the storage holds floats and bytes — and Add copies the coordinates,
// so a caller reusing its slice changes nothing queued.
func TestBinnedSelectReleasesPoppedPoint(t *testing.T) {
	b, err := NewBinned([]BinDim{{0, 1, 4}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]float64, 1)
	for i := 0; i < 3; i++ {
		coords[0] = float64(i+1) / 16 // all in bin 0
		if err := b.Add(Point{ID: fmt.Sprintf("f%d", i), Coords: coords}); err != nil {
			t.Fatal(err)
		}
	}
	coords[0] = 0.9 // the caller reuses its buffer
	got := b.Select(1)
	if len(got) != 1 || got[0].ID != "f0" || len(got[0].Coords) != 1 || got[0].Coords[0] != 1.0/16 {
		t.Fatalf("Select(1) = %v, want [{f0 [0.0625]}]", got)
	}
	got[0].Coords[0] = 0.5 // the caller owns the selected point
	if p := b.point(0); p.ID != "f0" || p.Coords[0] != 1.0/16 {
		t.Errorf("stored candidate 0 = %v after the caller wrote its selection", p)
	}
	if rest := b.Select(2); len(rest) != 2 || rest[0].ID != "f1" || rest[0].Coords[0] != 2.0/16 ||
		rest[1].ID != "f2" || rest[1].Coords[0] != 3.0/16 {
		t.Errorf("Select(2) = %v, want f1 at 0.125 and f2 at 0.1875", rest)
	}
}

// allocBytesPerCall reports the heap bytes one call of f allocates, averaged
// over calls. Bytes, not allocation counts: a scan allocates a constant
// number of objects whose sizes grow with what it scans.
func allocBytesPerCall(calls int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// binCentre20 returns the centre of joint bin bin of a 20³ binning of the
// unit cube.
func binCentre20(bin int) []float64 {
	return []float64{(float64(bin/400) + 0.5) / 20, (float64(bin/20%20) + 0.5) / 20, (float64(bin%20) + 0.5) / 20}
}

// TestBinnedSelectCostIgnoresNonEmptyBins: a uniform pick costs the same
// bytes with 50 and with 8,000 non-empty bins. A counted cost shape, not a
// timing.
func TestBinnedSelectCostIgnoresNonEmptyBins(t *testing.T) {
	perSelect := func(nonEmpty int) uint64 {
		b, err := NewBinned([]BinDim{{0, 1, 20}, {0, 1, 20}, {0, 1, 20}}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*nonEmpty; i++ {
			if err := b.Add(Point{ID: "f", Coords: binCentre20(i % nonEmpty)}); err != nil {
				t.Fatal(err)
			}
		}
		if len(b.nonEmpty) != nonEmpty {
			t.Fatalf("%d non-empty bins, want %d", len(b.nonEmpty), nonEmpty)
		}
		return allocBytesPerCall(100, func() { b.Select(1) })
	}
	few, many := perSelect(50), perSelect(8000)
	if many > few+few/4+64 {
		t.Errorf("Select(1) allocates %d B with 8,000 non-empty bins, %d B with 50: cost follows the live bin count", many, few)
	}
}

// BenchmarkBinnedSelect drives the sampler with the traffic the replay-coord
// ledger shows for the CG-frame queue: all 8,000 joint bins of the paper's
// 20³ binning non-empty, balance 0.8, about 72 offers arriving per selection
// (585,928 adds for 8,098 picks on seed 1), one pick at a time.
func BenchmarkBinnedSelect(b *testing.B) {
	const addsPerSelect = 72
	bn, err := NewBinned([]BinDim{{0, 1, 20}, {0, 1, 20}, {0, 1, 20}}, 0.8, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	offers := make([]Point, 8000*4+b.N*addsPerSelect)
	for i := range offers {
		c := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i < 8000 { // one per bin first, so every bin is non-empty
			c = binCentre20(i)
		}
		offers[i] = Point{ID: "f", Coords: c}
	}
	for _, p := range offers[:8000*4] {
		if err := bn.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	offers = offers[8000*4:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range offers[i*addsPerSelect : (i+1)*addsPerSelect] {
			if err := bn.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if len(bn.Select(1)) != 1 {
			b.Fatal("empty selection")
		}
	}
}
