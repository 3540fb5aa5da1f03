package dynim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mummi/internal/parallel"
)

// The determinism contract of the parallel selector engine: for ANY worker
// count, interleaved Add/Update/Select traffic produces the identical
// selection sequence and queue after every operation as the serial
// (workers=1) path. Every §5 replay figure depends on this. The tests in this file run
// the same randomized scenario at workers 1, 2, 3, 7, and GOMAXPROCS and
// require bit-identical outcomes; `go test -race ./internal/dynim/...`
// additionally proves the sharded refresh is data-race-free.

// fpScenario drives one randomized Add/Update/Select workload against a
// sampler with the given worker count and returns the queue, in slot order,
// after every operation, plus the selection sequence.
func fpScenario(seed int64, capacity, workers int) (queues [][]string, selections []string) {
	rng := rand.New(rand.NewSource(seed))
	fp := NewFarthestPoint(3, capacity)
	fp.SetWorkers(workers)
	next := 0
	for op := 0; op < 60; op++ {
		switch rng.Intn(4) {
		case 0, 1: // burst of adds (the common traffic shape)
			for i := rng.Intn(40); i >= 0; i-- {
				fp.Add(Point{
					ID:     fmt.Sprintf("p%04d", next),
					Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
				})
				next++
			}
		case 2: // off-critical-path rank refresh
			fp.Update()
		case 3: // selection burst
			for _, p := range fp.Select(1 + rng.Intn(5)) {
				selections = append(selections, p.ID)
			}
		}
		queues = append(queues, slices.Clone(fp.ids))
	}
	for _, p := range fp.Select(10) {
		selections = append(selections, p.ID)
	}
	return queues, selections
}

func equivWorkerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

func TestPropertyParallelSelectionMatchesSerial(t *testing.T) {
	withGoBody(t, testPropertyParallelSelectionMatchesSerial)
}

func testPropertyParallelSelectionMatchesSerial(t *testing.T) {
	f := func(seed int64, cappedQueue bool) bool {
		capacity := 0
		if cappedQueue {
			capacity = 48 // forces eviction batches through the heap path
		}
		refQueues, refSel := fpScenario(seed, capacity, 1)
		for _, workers := range equivWorkerCounts()[1:] {
			queues, sel := fpScenario(seed, capacity, workers)
			if !reflect.DeepEqual(sel, refSel) {
				t.Logf("seed %d workers %d: selection sequence diverged", seed, workers)
				return false
			}
			if !reflect.DeepEqual(queues, refQueues) {
				t.Logf("seed %d workers %d: queue diverged", seed, workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestParallelSelectionMatchesSerialAtScale(t *testing.T) {
	withGoBody(t, testParallelSelectionMatchesSerialAtScale)
}

func testParallelSelectionMatchesSerialAtScale(t *testing.T) {
	// One deterministic run past fpsMinWork so the slot-range fan-out really
	// spawns goroutines (the property test's queues stay below the
	// serial-inline threshold).
	if testing.Short() {
		t.Skip("short mode")
	}
	build := func(workers int) []string {
		rng := rand.New(rand.NewSource(99))
		fp := NewFarthestPoint(9, 0)
		fp.SetWorkers(workers)
		for i := 0; i < fpsMinWork; i++ {
			c := make([]float64, 9)
			for j := range c {
				c[j] = rng.Float64()
			}
			fp.Add(Point{ID: fmt.Sprintf("p%05d", i), Coords: c})
		}
		var out []string
		for round := 0; round < 4; round++ {
			fp.Update()
			for _, p := range fp.Select(6) {
				out = append(out, p.ID)
			}
		}
		return out
	}
	ref := build(1)
	for _, workers := range equivWorkerCounts()[1:] {
		if got := build(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: selection sequence differs from serial", workers)
		}
	}
}

// campaignRun is what TestCampaignTrafficMatchesSerial compares across
// worker counts: the selections, and the candidate store with its rank
// caches after a final Update.
type campaignRun struct {
	selected []string
	ids      []string
	dist2    []uint64 // math.Float64bits, so the comparison is bitwise
	seenSel  []int32
}

// TestCampaignTrafficMatchesSerial drives the traffic the replay-paper
// ledger shows for a patch queue — a capped queue, 158 offers per
// Select(1), the batched eviction firing about once a pick — and requires
// the same selections, queue and, after Update, bit-identical rank caches
// for every worker count. It is long enough that the arrival fan-out
// splits: 158 arrivals against more than 2·fpsMinWork/158 selections.
func TestCampaignTrafficMatchesSerial(t *testing.T) {
	withGoBody(t, testCampaignTrafficMatchesSerial)
}

func testCampaignTrafficMatchesSerial(t *testing.T) {
	const dim, capacity, addsPerSelect, picks = 9, 2000, 158, 260
	run := func(workers int) campaignRun {
		rng := rand.New(rand.NewSource(17))
		fp := NewFarthestPoint(dim, capacity)
		fp.SetWorkers(workers)
		var r campaignRun
		next := 0
		for pick := 0; pick < picks; pick++ {
			for i := 0; i < addsPerSelect; i++ {
				c := make([]float64, dim)
				for k := range c {
					c[k] = rng.NormFloat64()
				}
				if err := fp.Add(Point{ID: fmt.Sprintf("p%07d", next), Coords: c}); err != nil {
					t.Fatal(err)
				}
				next++
			}
			got := fp.Select(1)
			if len(got) != 1 {
				t.Fatal("empty selection")
			}
			r.selected = append(r.selected, got[0].ID)
		}
		fp.Update()
		r.ids, r.seenSel = fp.ids, fp.seenSel
		for _, d := range fp.dist2 {
			r.dist2 = append(r.dist2, math.Float64bits(d))
		}
		return r
	}
	ref := run(1)
	if parallel.Chunks(addsPerSelect, 2, minChunk(len(ref.selected))) < 2 {
		t.Fatalf("arrival fan-out never splits: %d selections", len(ref.selected))
	}
	if len(ref.ids) == picks*addsPerSelect-picks {
		t.Fatal("eviction never fired")
	}
	for _, workers := range equivWorkerCounts()[1:] {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: selections %v, store %v, dist2 %v, seenSel %v (true = same as serial)",
				workers, reflect.DeepEqual(got.selected, ref.selected),
				reflect.DeepEqual(got.ids, ref.ids), reflect.DeepEqual(got.dist2, ref.dist2),
				reflect.DeepEqual(got.seenSel, ref.seenSel))
		}
	}
}

// TestArrivalBurstIsNotChurn: arrivals are ranked before the lazy pick
// starts counting, so a burst of them larger than the churn limit no longer
// pushes the pick onto the streaming path and the heap stays ordered.
func TestArrivalBurstIsNotChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fp := NewFarthestPoint(3, 0)
	next := 0
	add := func(n int) {
		for ; n > 0; n-- {
			id := fmt.Sprintf("p%05d", next)
			if err := fp.Add(Point{ID: id, Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	add(300)
	fp.Select(1)
	fp.Update()
	burst := 4 * (len(fp.h)/256 + 32)
	add(burst)
	if len(fp.dirty) != burst {
		t.Fatalf("arrival list holds %d, want %d", len(fp.dirty), burst)
	}
	if len(fp.Select(1)) != 1 {
		t.Fatal("empty selection")
	}
	if fp.heapDirty {
		t.Error("a burst of arrivals pushed Select onto the streaming path")
	}
}

func TestQueueSetParallelMatchesSerial(t *testing.T) {
	withGoBody(t, testQueueSetParallelMatchesSerial)
}

func testQueueSetParallelMatchesSerial(t *testing.T) {
	// QueueSet-wide updates and round-robin selection under the worker knob.
	run := func(workers int) []string {
		rng := rand.New(rand.NewSource(7))
		qs := NewQueueSet(3, 64, func(p Point) string { return p.ID[:strings.IndexByte(p.ID, '/')] })
		qs.SetWorkers(workers)
		queues := []string{"ras-a", "ras-b", "ras-raf"}
		var out []string
		for round := 0; round < 8; round++ {
			for i := 0; i < 120; i++ {
				qs.Add(Point{
					ID:     fmt.Sprintf("%s/r%dp%03d", queues[rng.Intn(len(queues))], round, i),
					Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
				})
			}
			for _, name := range qs.order {
				qs.queues[name].Update()
			}
			out = append(out, idsOf(qs.Select(9))...)
		}
		return out
	}
	ref := run(1)
	for _, workers := range equivWorkerCounts()[1:] {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: queue-set selection differs from serial", workers)
		}
	}
}

// BenchmarkFPSSelectBurst is the selector hot path in isolation: fill a
// paper-sized queue, then time eight picks, a full refresh, and a ninth
// pick — the same window mummi-sim exp -exp ml165x (selectorScaling in
// cmd/mummi-sim) measures.
func BenchmarkFPSSelectBurst(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 35000)
	for i := range pts {
		coords := make([]float64, 9)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		pts[i] = Point{ID: fmt.Sprintf("p%07d", i), Coords: coords}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fp := NewFarthestPoint(9, 0)
		for _, p := range pts {
			if err := fp.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		fp.Select(8)
		fp.Update()
		fp.Select(1)
	}
}
