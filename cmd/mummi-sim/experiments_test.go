package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mummi/internal/dynim"
)

// TestFig7KVQueries holds the sweep to what it measured, not to how long it
// took: fig7KVQueries already fails unless every frame is scanned, fetched
// and deleted exactly, so the test checks one row per frame count in sweep
// order. The timing shape (a scan that grows with frames, value reads the
// slowest query) is host time and only logged.
func TestFig7KVQueries(t *testing.T) {
	frames := []int{100, 500, 2000}
	rows, err := fig7KVQueries(frames, 4, 850)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(frames) {
		t.Fatalf("rows = %d, want %d", len(rows), len(frames))
	}
	for i, r := range rows {
		if r.Frames != frames[i] {
			t.Errorf("row %d covers %d frames, want %d", i, r.Frames, frames[i])
		}
	}
	// Shape notes (paper: ~2k reads/s vs ~10k keys+dels/s).
	if rows[2].RetrieveKeys <= rows[0].RetrieveKeys/2 {
		t.Logf("note: key scan not growing with frames (%v at %d, %v at %d)",
			rows[0].RetrieveKeys, rows[0].Frames, rows[2].RetrieveKeys, rows[2].Frames)
	}
	big := rows[2]
	if big.RetrieveValues <= big.RetrieveKeys/2 {
		t.Logf("note: value reads unusually fast (%v vs keys %v)", big.RetrieveValues, big.RetrieveKeys)
	}
	out := fig7Text(rows)
	if !strings.Contains(out, "Fig 7") || !strings.Contains(out, "2000") {
		t.Errorf("fig7Text malformed:\n%s", out)
	}
}

func TestFig8AAFeedback(t *testing.T) {
	res := fig8AAFeedback(400, 6, 2*time.Second, 1)
	if len(res.Rows) != 400 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.WithinTarget < 0.9 {
		t.Errorf("within-target fraction = %.2f, want > 0.9 (paper 0.97)", res.WithinTarget)
	}
	if res.WithinTarget == 1 {
		t.Error("no iteration missed the target: backlog bursts missing")
	}
	// Linear scaling past the knee: a 6400-frame iteration takes ~4x a
	// 1600-frame one.
	var small, large time.Duration
	var nSmall, nLarge int
	for _, r := range res.Rows {
		if r.Frames > 1500 && r.Frames < 2500 {
			small += r.Time
			nSmall++
		}
		if r.Frames > 5500 {
			large += r.Time
			nLarge++
		}
	}
	if nSmall > 0 && nLarge > 0 {
		ratio := float64(large/time.Duration(nLarge)) / float64(small/time.Duration(nSmall))
		if ratio < 2 || ratio > 5 {
			t.Errorf("scaling ratio = %.1f, want ~3 (linear)", ratio)
		}
	}
	if !strings.Contains(fig8Text(res), "10-min target") {
		t.Error("fig8Text malformed")
	}
}

func TestFluxFixSmall(t *testing.T) {
	// Scaled-down emulation: 200 nodes, 1200 GPU jobs.
	res, err := fluxFix670(200, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExhaustiveVisits <= res.FirstMatchVisits {
		t.Fatalf("exhaustive (%d) not slower than first-match (%d)",
			res.ExhaustiveVisits, res.FirstMatchVisits)
	}
	// The improvement should be orders of magnitude even at this scale.
	if res.visitRatio() < 50 {
		t.Errorf("visit ratio = %.0f, want >> 50", res.visitRatio())
	}
	if !strings.Contains(fluxFixText(res), "improvement") {
		t.Error("fluxFixText malformed")
	}
}

func TestTaridxThroughputSmall(t *testing.T) {
	res, err := taridxThroughput(t.TempDir(), 200, 156_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inodes != 2 {
		t.Errorf("inodes = %d, want 2 (tar + index)", res.Inodes)
	}
	if res.filesPerSec() <= 0 || res.mbPerSec() <= 0 {
		t.Error("throughput not measured")
	}
	if !strings.Contains(taridxText(res), "files/s") {
		t.Error("taridxText malformed")
	}
}

func TestFeedback12xSmall(t *testing.T) {
	res, err := feedback12x(t.TempDir(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KVTimes) != feedbackKVRepeats {
		t.Fatalf("%d kv iterations timed, want %d", len(res.KVTimes), feedbackKVRepeats)
	}
	if res.FSHost <= 0 || slices.Min(res.KVTimes) <= 0 {
		t.Fatal("times not measured")
	}
	// The modeled filesystem side is a count: one listing of the new
	// namespace, then a read and a move per frame.
	if want := int64(1 + 2*2000); res.FSOps != want {
		t.Errorf("filesystem iteration made %d operations, want %d", res.FSOps, want)
	}
	// On local disk the gap is narrower than GPFS-vs-Redis, but the
	// database path must not lose.
	if res.speedup() < 1.0 {
		t.Errorf("kv backend slower than fs: %.2fx", res.speedup())
	}
	if !strings.Contains(feedbackText(res), "speedup") {
		t.Error("feedbackText malformed")
	}
}

func TestSelectorScalingSmall(t *testing.T) {
	res, err := selectorScaling(5000, 200_000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FPSUpdateTime <= 0 {
		t.Error("FPS update not measured")
	}
	// Binned ingest at 40x the FPS queue size must still be cheap: the O(1)
	// add is the design point that buys the paper its 165x capacity. It is
	// held as a count, not a time: under one allocation an add, amortized (a
	// bin's queue grows by doubling), with 20,000 queued and with ten times
	// as many.
	small, large := binnedAddAllocs(t, 20_000), binnedAddAllocs(t, 200_000)
	if small >= 1 || large >= 1 || small != large {
		t.Errorf("binned add allocates %v times with 20,000 queued and %v with 200,000, want under 1 both", small, large)
	}
	if res.CandidateRatio != 40 {
		t.Errorf("candidate ratio = %v", res.CandidateRatio)
	}
	if !strings.Contains(selectorText(res), "selector scaling") {
		t.Error("selectorText malformed")
	}
}

// binnedAddAllocs queues n points in a binned sampler binned as
// selectorScaling's, then returns testing.AllocsPerRun of one more Add.
func binnedAddAllocs(t *testing.T, n int) float64 {
	t.Helper()
	dims := []dynim.BinDim{{Lo: 0, Hi: 1, Bins: 20}, {Lo: 0, Hi: 1, Bins: 20}, {Lo: 0, Hi: 1, Bins: 20}}
	bn, err := dynim.NewBinned(dims, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	rng := rand.New(rand.NewSource(3))
	pts := make([]dynim.Point, n+runs+1) // AllocsPerRun adds one warm-up call
	for i := range pts {
		pts[i] = dynim.Point{ID: fmt.Sprintf("f%08d", i), Coords: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	for _, p := range pts[:n] {
		if err := bn.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	next := n
	return testing.AllocsPerRun(runs, func() {
		if err := bn.Add(pts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

func TestBundlingAblationSmall(t *testing.T) {
	res, err := bundlingAblation(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Unbundled must beat bundled on both utilization and makespan.
	if res.UnbundledUtil <= res.BundledUtilization {
		t.Errorf("unbundled util %.2f <= bundled %.2f",
			res.UnbundledUtil, res.BundledUtilization)
	}
	if res.UnbundledMakespan >= res.BundledMakespan {
		t.Errorf("unbundled makespan %v >= bundled %v",
			res.UnbundledMakespan, res.BundledMakespan)
	}
	if !strings.Contains(bundlingText(res), "bundling ablation") {
		t.Error("bundlingText malformed")
	}
}

func TestInventoryAblation(t *testing.T) {
	rows, err := inventoryAblation([]float64{0.02, 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A starved inventory must cost GPU occupancy relative to a healthy one.
	if rows[0].GPUMeanPct >= rows[1].GPUMeanPct {
		t.Errorf("tiny inventory GPU %.1f%% not below healthy %.1f%%",
			rows[0].GPUMeanPct, rows[1].GPUMeanPct)
	}
	if !strings.Contains(inventoryText(rows), "inventory ablation") {
		t.Error("inventoryText malformed")
	}
}
