package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/cluster"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/errutil"
	"mummi/internal/feedback"
	"mummi/internal/fsstore"
	"mummi/internal/kvstore"
	"mummi/internal/sched"
	"mummi/internal/sim"
	"mummi/internal/stats"
	"mummi/internal/taridx"
	"mummi/internal/units"
	"mummi/internal/vclock"
)

// This file holds the bodies of exp's systems experiments (§4–5), the rows
// of the experiments table that run against the real components instead of
// reading the campaign replay: the Redis-feedback query measurements
// (Fig. 7), the AA-feedback latency model (Fig. 8), the Flux first-match
// fix (the "670×" comparison), the taridx read-throughput and inode
// numbers, the filesystem-vs-database feedback comparison (the ≥12× claim),
// the selector scaling comparison (the "165× more data" claim), and the
// bundling and inventory ablations.

// ---------------------------------------------------------------------------
// Fig. 7 — KV-store feedback queries

// fig7Row is one sweep point: wall time for the three query types the
// CG→continuum feedback performs against the in-memory store.
type fig7Row struct {
	Frames         int
	RetrieveKeys   time.Duration
	RetrieveValues time.Duration
	Delete         time.Duration
}

// fig7KVQueries stands up a KV cluster (the paper used 20 Redis nodes),
// loads it with RDF-sized frames, and measures key retrieval, value
// retrieval, and deletion for each frame count.
func fig7KVQueries(frameCounts []int, clusterNodes, valueBytes int) (_ []fig7Row, err error) {
	addrs, shutdown, err := kvstore.LaunchCluster(clusterNodes)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	c, err := kvstore.DialCluster(addrs)
	if err != nil {
		return nil, err
	}
	defer errutil.CaptureClose(&err, c.Close)

	value := make([]byte, valueBytes)
	rand.New(rand.NewSource(1)).Read(value)

	var rows []fig7Row
	for _, n := range frameCounts {
		names, values := make([]string, n), make([][]byte, n)
		for i := range names {
			names[i], values[i] = fmt.Sprintf("rdf:new:%07d", i), value
		}
		if err := c.MSetSlice(names, values); err != nil {
			return nil, err
		}

		t0 := time.Now()
		keys, err := c.Keys("rdf:new:*")
		if err != nil {
			return nil, err
		}
		tKeys := time.Since(t0)
		if len(keys) != n {
			return nil, fmt.Errorf("fig7: scan found %d/%d keys", len(keys), n)
		}

		t1 := time.Now()
		vals, err := c.MGetSlice(keys)
		if err != nil {
			return nil, err
		}
		tVals := time.Since(t1)
		fetched := 0
		for _, v := range vals {
			if v != nil {
				fetched++
			}
		}
		if fetched != n {
			return nil, fmt.Errorf("fig7: fetched %d/%d values", fetched, n)
		}

		t2 := time.Now()
		deleted, err := c.Del(keys...)
		if err != nil {
			return nil, err
		}
		tDel := time.Since(t2)
		if deleted != n {
			return nil, fmt.Errorf("fig7: deleted %d/%d", deleted, n)
		}
		rows = append(rows, fig7Row{Frames: n, RetrieveKeys: tKeys, RetrieveValues: tVals, Delete: tDel})
	}
	return rows, nil
}

// fig7Text renders the sweep with derived throughputs.
func fig7Text(rows []fig7Row) string {
	t := stats.Table{Header: []string{"frames", "keys", "values", "delete", "keys/s", "reads/s", "dels/s"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Frames),
			r.RetrieveKeys.Round(time.Microsecond).String(),
			r.RetrieveValues.Round(time.Microsecond).String(),
			r.Delete.Round(time.Microsecond).String(),
			rate(r.Frames, r.RetrieveKeys), rate(r.Frames, r.RetrieveValues), rate(r.Frames, r.Delete))
	}
	return "# Fig 7: in-memory DB feedback queries vs number of CG frames\n" +
		"# (paper, 20-node Redis on Summit: ~10k keys+dels/s, ~2k reads/s; linear in frames)\n" +
		t.String()
}

func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}

// ---------------------------------------------------------------------------
// Fig. 8 — AA→CG feedback latency

// fig8Row is one iteration class: frames processed vs modeled wall time.
type fig8Row struct {
	Frames int
	Time   time.Duration
}

// fig8Result is the modeled distribution of AA-feedback iterations.
type fig8Result struct {
	Rows         []fig8Row
	WithinTarget float64 // fraction of iterations within the 10-min target
	Target       time.Duration
}

// fig8AAFeedback models AA→CG feedback iterations: each frame costs ~2 s of
// external-module calls (±20%), drained by a worker pool, plus a fixed
// overhead for process spawning and staging. The iteration sizes follow the
// campaign cadence: 2400 AA simulations produce one eligible frame every
// ~10 min each, thinned by eligibility; occasionally a backlog burst (the
// paper's restart accumulations) pushes past 1600 frames where the target
// is missed but scaling stays linear.
func fig8AAFeedback(iterations, workers int, perFrame time.Duration, seed int64) fig8Result {
	rng := rand.New(rand.NewSource(seed))
	res := fig8Result{Target: 10 * time.Minute}
	within := 0
	for i := 0; i < iterations; i++ {
		frames := int(rng.ExpFloat64() * 400)
		if rng.Float64() < 0.015 { // restart backlog burst
			frames = 1600 + rng.Intn(5500)
		}
		if frames > 7000 {
			frames = 7000
		}
		costs := make([]time.Duration, frames)
		for j := range costs {
			costs[j] = time.Duration(float64(perFrame) * (0.8 + 0.4*rng.Float64()))
		}
		overhead := 30*time.Second + time.Duration(rng.Intn(20))*time.Second
		total := overhead + feedback.SimulatePoolTime(costs, workers)
		res.Rows = append(res.Rows, fig8Row{Frames: frames, Time: total})
		if total <= res.Target {
			within++
		}
	}
	res.WithinTarget = float64(within) / float64(len(res.Rows))
	return res
}

// fig8Text renders the iteration scatter as binned means plus the headline.
func fig8Text(r fig8Result) string {
	bins := stats.NewHistogram(0, 7000, 14)
	sums := make([]time.Duration, 14)
	counts := make([]int, 14)
	for _, row := range r.Rows {
		i := row.Frames * 14 / 7000
		if i >= 14 {
			i = 13
		}
		sums[i] += row.Time
		counts[i]++
		bins.Add(float64(row.Frames))
	}
	t := stats.Table{Header: []string{"frames(bin)", "iterations", "mean time"}}
	for i := range sums {
		if counts[i] == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%.0f", bins.BinCenter(i)), fmt.Sprintf("%d", counts[i]),
			(sums[i] / time.Duration(counts[i])).Round(time.Second).String())
	}
	return fmt.Sprintf("# Fig 8: AA-to-CG feedback time vs frames processed\n%s"+
		"iterations within 10-min target: %.1f%% (paper: >97%%)\n",
		t.String(), r.WithinTarget*100)
}

// ---------------------------------------------------------------------------
// Flux fix — first-match + async vs exhaustive + sync (the 670×)

// fluxFixResult compares matcher work for the paper's emulated job mix.
type fluxFixResult struct {
	Nodes            int
	Jobs             int
	ExhaustiveVisits int64
	FirstMatchVisits int64
	ExhaustiveWall   time.Duration
	FirstMatchWall   time.Duration
}

// visitRatio returns the matcher-work improvement factor.
func (r fluxFixResult) visitRatio() float64 {
	if r.FirstMatchVisits == 0 {
		return 0
	}
	return float64(r.ExhaustiveVisits) / float64(r.FirstMatchVisits)
}

// fluxFix670 reproduces the §5.2 emulated-environment experiment: "a
// resource graph configuration similar to 4000 Summit nodes and the same
// job mix (24,000 jobs with 1 GPU and 3 CPU cores each, and 1 job with 150
// nodes, each with 24 cores)", matched under the original policy
// (exhaustive lowest-ID traversal) and under the fix (first-match), with
// the traversal work and wall time measured.
func fluxFix670(nodes, gpuJobs int) (fluxFixResult, error) {
	res := fluxFixResult{Nodes: nodes, Jobs: gpuJobs + 1}
	run := func(policy sched.Policy) (int64, time.Duration, error) {
		m, err := cluster.New(cluster.Summit(nodes))
		if err != nil {
			return 0, 0, err
		}
		mt := sched.NewMatcher(m, policy)
		start := time.Now()
		big := sched.Request{Name: "continuum", NodeCount: min(150, nodes), Cores: 24}
		if _, _, ok := mt.Match(big); !ok {
			return 0, 0, fmt.Errorf("fluxfix: continuum job did not place")
		}
		small := sched.Request{Name: "cg-sim", Cores: 3, GPUs: 1}
		placed := 0
		for i := 0; i < gpuJobs; i++ {
			if _, _, ok := mt.Match(small); ok {
				placed++
			}
		}
		if want := min(gpuJobs, nodes*6); placed != want {
			return 0, 0, fmt.Errorf("fluxfix: placed %d, want %d", placed, want)
		}
		return mt.Visits(), time.Since(start), nil
	}
	var err error
	if res.ExhaustiveVisits, res.ExhaustiveWall, err = run(sched.LowIDExhaustive); err != nil {
		return res, err
	}
	if res.FirstMatchVisits, res.FirstMatchWall, err = run(sched.FirstMatch); err != nil {
		return res, err
	}
	return res, nil
}

// fluxFixText renders the comparison.
func fluxFixText(r fluxFixResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Flux scheduling fix (emulated %d-node graph, %d-job mix)\n", r.Nodes, r.Jobs)
	fmt.Fprintf(&b, "exhaustive low-ID: %d vertex visits, %v wall\n", r.ExhaustiveVisits, r.ExhaustiveWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "first-match:       %d vertex visits, %v wall\n", r.FirstMatchVisits, r.FirstMatchWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "improvement: %.0fx in matcher work (paper measured 670x with async Q-R)\n", r.visitRatio())
	return b.String()
}

// ---------------------------------------------------------------------------
// Taridx throughput and inode reduction (§5.2)

// taridxResult reports archive read performance.
type taridxResult struct {
	Files     int
	FileBytes int
	Inodes    int
	WriteWall time.Duration
	ReadWall  time.Duration
}

// filesPerSec returns read throughput in files/s.
func (r taridxResult) filesPerSec() float64 { return float64(r.Files) / r.ReadWall.Seconds() }

// mbPerSec returns read throughput in MB/s.
func (r taridxResult) mbPerSec() float64 {
	return float64(r.Files) * float64(r.FileBytes) / 1e6 / r.ReadWall.Seconds()
}

// taridxThroughput writes `files` entries of `fileBytes` each into one
// indexed archive, then reads every entry back in random order, measuring
// the §5.2 read numbers (~575 files/s, ~87.56 MB/s at ~156 KB/file on
// Summit's GPFS; local disk is faster — the shape claim is that archives
// deliver sequential-class throughput under random access while occupying
// two inodes).
func taridxThroughput(dir string, files, fileBytes int) (_ taridxResult, err error) {
	res := taridxResult{Files: files, FileBytes: fileBytes}
	a, err := taridx.Open(filepath.Join(dir, "bench.tar"))
	if err != nil {
		return res, err
	}
	// The archive is append-mode: a failed close can mean lost index
	// appends, so it must surface in the benchmark result.
	defer errutil.CaptureClose(&err, a.Close)
	payload := make([]byte, fileBytes)
	rand.New(rand.NewSource(2)).Read(payload)

	t0 := time.Now()
	for i := 0; i < files; i++ {
		if err := a.Put(fmt.Sprintf("f%08d", i), payload); err != nil {
			return res, err
		}
	}
	res.WriteWall = time.Since(t0)

	order := rand.New(rand.NewSource(3)).Perm(files)
	t1 := time.Now()
	for _, i := range order {
		b, err := a.Get(fmt.Sprintf("f%08d", i))
		if err != nil {
			return res, err
		}
		if len(b) != fileBytes {
			return res, fmt.Errorf("taridx bench: short read %d", len(b))
		}
	}
	res.ReadWall = time.Since(t1)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return res, err
	}
	res.Inodes = len(ents)
	return res, nil
}

// taridxText renders the throughput result.
func taridxText(r taridxResult) string {
	return fmt.Sprintf("# taridx: %d files x %s in one archive (%d inodes; 9000x-class reduction)\n"+
		"write: %v   read (random order): %v = %.0f files/s, %.1f MB/s\n"+
		"(paper on GPFS: ~575 files/s, ~87.56 MB/s at ~156 KB/file)\n",
		r.Files, units.ByteSize(r.FileBytes), r.Inodes,
		r.WriteWall.Round(time.Millisecond), r.ReadWall.Round(time.Millisecond),
		r.filesPerSec(), r.mbPerSec())
}

// ---------------------------------------------------------------------------
// Feedback backends — the ≥12× faster feedback loop

// feedbackCompareResult compares one CG→continuum feedback iteration over
// the filesystem backend vs the in-memory database backend.
type feedbackCompareResult struct {
	Frames int
	FSHost time.Duration // host time of the filesystem iteration
	FSOps  int64         // filesystem operations the iteration made
	KVTime time.Duration // host time of the KV iteration
}

// fsTime is the filesystem iteration's time on contended GPFS: its host
// time on local disk plus the modeled gpfsOpLatency for each operation.
func (r feedbackCompareResult) fsTime() time.Duration {
	return r.FSHost + time.Duration(r.FSOps)*gpfsOpLatency
}

// speedup returns FS/KV.
func (r feedbackCompareResult) speedup() float64 {
	if r.KVTime <= 0 {
		return 0
	}
	return float64(r.fsTime()) / float64(r.KVTime)
}

// gpfsOpLatency models per-operation latency of a contended parallel
// filesystem in the feedback12x comparison. The paper's GPFS feedback
// suffered directory locking, metadata storms and explicit I/O throttling;
// 200 µs per metadata/file operation is a conservative stand-in (real
// contended GPFS metadata operations are millisecond-class).
const gpfsOpLatency = 200 * time.Microsecond

// feedback12x loads the same CG frames into a filesystem store and a KV
// cluster store, and runs one full feedback iteration against each. The
// filesystem store counts the operations the iteration makes and each is
// charged gpfsOpLatency on top of the host time (fsTime): the latency is
// modeled, not slept. The paper's prior filesystem-based feedback took ~2 h
// per iteration; moving to Redis brought it under 10 min (>12×).
func feedback12x(dir string, frames int) (_ feedbackCompareResult, err error) {
	res := feedbackCompareResult{Frames: frames}
	gen := func(store datastore.Store) error {
		g := sim.NewCGSim("cmp", 8, 1, nil, 9)
		for i := 0; i < frames; i++ {
			f := g.NextFrame()
			b, err := f.MarshalBinary()
			if err != nil {
				return err
			}
			if err := store.Put("rdf-new", f.ID(), b); err != nil {
				return err
			}
		}
		return nil
	}
	iterate := func(store datastore.Store) (time.Duration, error) {
		fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
			Store: store, NewNS: "rdf-new", DoneNS: "rdf-done", Species: 8, States: 3,
		})
		if err != nil {
			return 0, err
		}
		rep, err := fb.Iterate()
		if err != nil {
			return 0, err
		}
		if rep.Frames != frames {
			return 0, fmt.Errorf("feedback12x: processed %d/%d", rep.Frames, frames)
		}
		return rep.Total(), nil
	}

	var fsOps atomic.Int64
	fs, err := fsstore.New(filepath.Join(dir, "fs"),
		fsstore.WithFaultHook(func(string, string) error {
			fsOps.Add(1)
			return nil
		}))
	if err != nil {
		return res, err
	}
	defer errutil.CaptureClose(&err, fs.Close)
	if err := gen(fs); err != nil {
		return res, err
	}
	loaded := fsOps.Load()
	if res.FSHost, err = iterate(fs); err != nil {
		return res, err
	}
	res.FSOps = fsOps.Load() - loaded

	addrs, shutdown, err := kvstore.LaunchCluster(4)
	if err != nil {
		return res, err
	}
	defer shutdown()
	kvc, err := kvstore.DialCluster(addrs)
	if err != nil {
		return res, err
	}
	kv := kvstore.NewStore(kvc)
	defer errutil.CaptureClose(&err, kv.Close)
	if err := gen(kv); err != nil {
		return res, err
	}
	if res.KVTime, err = iterate(kv); err != nil {
		return res, err
	}
	return res, nil
}

// feedbackText renders the backend comparison.
func feedbackText(r feedbackCompareResult) string {
	return fmt.Sprintf("# feedback iteration, %d CG frames\nfilesystem backend: %v (host %v + %d ops x %v modeled)\nkv-database backend: %v\nspeedup: %.1fx (paper: >12x, 2h -> <10min)\n",
		r.Frames, r.fsTime().Round(time.Millisecond), r.FSHost.Round(time.Millisecond), r.FSOps, gpfsOpLatency,
		r.KVTime.Round(time.Millisecond), r.speedup())
}

// ---------------------------------------------------------------------------
// Selector scaling — "165× more data" for dynamic decisions

// selectorScalingResult compares rank-update cost of the two samplers at
// their campaign scales.
type selectorScalingResult struct {
	FPSQueue       int
	FPSUpdateTime  time.Duration
	BinnedN        int
	BinnedAddTime  time.Duration // total for all adds
	BinnedSelTime  time.Duration // one selection burst
	CandidateRatio float64
}

// selectorScaling fills a farthest-point queue to fpsQueue points (the
// paper's 35,000-patch queues; rank update takes 3–4 min at that size in
// Python/FAISS) and a binned sampler to binnedN candidates (9 M in the
// campaign — ~165× more than the prior work's selector held), measuring
// the cost of a full rank refresh on each. workers sizes the rank-update
// fan-out (0 = GOMAXPROCS); the selection sequence is identical for every
// value, so the knob only moves the measured wall-clock.
func selectorScaling(fpsQueue, binnedN, workers int, seed int64) (selectorScalingResult, error) {
	res := selectorScalingResult{FPSQueue: fpsQueue, BinnedN: binnedN,
		CandidateRatio: float64(binnedN) / float64(fpsQueue)}
	rng := rand.New(rand.NewSource(seed))

	fp := dynim.NewFarthestPoint(9, 0)
	fp.SetWorkers(workers)
	coords := make([]float64, 9)
	for i := 0; i < fpsQueue; i++ {
		for j := range coords {
			coords[j] = rng.Float64()
		}
		if err := fp.Add(dynim.Point{ID: fmt.Sprintf("p%07d", i),
			Coords: append([]float64(nil), coords...)}); err != nil {
			return res, err
		}
	}
	// Time the full selection burst: eight picks (each paying a rank
	// refresh against the selections made since candidates were last
	// ranked), one explicit refresh, and a ninth pick. The window must
	// cover the picks themselves — engines are free to schedule refresh
	// work eagerly (per pick) or lazily (on demand), so timing only the
	// trailing Update would charge the two strategies for different work.
	t0 := time.Now()
	fp.Select(8)
	fp.Update()
	fp.Select(1)
	res.FPSUpdateTime = time.Since(t0)

	dims := []dynim.BinDim{{Lo: 0, Hi: 1, Bins: 20}, {Lo: 0, Hi: 1, Bins: 20}, {Lo: 0, Hi: 1, Bins: 20}}
	bn, err := dynim.NewBinned(dims, 0.8, seed)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	c3 := make([]float64, 3)
	for i := 0; i < binnedN; i++ {
		for j := range c3 {
			c3[j] = rng.Float64()
		}
		if err := bn.Add(dynim.Point{ID: fmt.Sprintf("f%08d", i),
			Coords: append([]float64(nil), c3...)}); err != nil {
			return res, err
		}
	}
	res.BinnedAddTime = time.Since(t1)
	t2 := time.Now()
	bn.Select(100)
	res.BinnedSelTime = time.Since(t2)
	return res, nil
}

// selectorText renders the comparison.
func selectorText(r selectorScalingResult) string {
	return fmt.Sprintf("# selector scaling\nfarthest-point: %d-candidate queue, rank refresh + select = %v (paper: 3-4 min)\n"+
		"binned: %d candidates ingested in %v (O(1)/add), 100 selections = %v (paper: 3-4 min refresh for 9M)\n"+
		"candidate ratio: %.0fx (paper claims ~165x more data than prior selector)\n",
		r.FPSQueue, r.FPSUpdateTime.Round(time.Millisecond),
		r.BinnedN, r.BinnedAddTime.Round(time.Millisecond), r.BinnedSelTime.Round(time.Millisecond),
		r.CandidateRatio)
}

// ---------------------------------------------------------------------------
// Bundling ablation (§4.3)

// bundlingResult compares effective GPU utilization of bundled (one job per
// node, 6 simulations) vs unbundled (one job per simulation) placement on a
// straggler-prone ensemble.
type bundlingResult struct {
	Nodes              int
	Rounds             int
	BundledUtilization float64
	UnbundledUtil      float64
	BundledMakespan    time.Duration
	UnbundledMakespan  time.Duration
}

// bundlingAblation runs the same ensemble (nodes×6 simulations per round,
// lognormal durations with stragglers) both ways through the real
// scheduler. Under bundling, a node's job ends only when its slowest
// simulation does — "the worst case utilization of 1/6, when a single
// simulation keeps the job alive and continues to occupy the node".
func bundlingAblation(nodes, rounds int, seed int64) (bundlingResult, error) {
	res := bundlingResult{Nodes: nodes, Rounds: rounds}
	durations := make([][]time.Duration, rounds*nodes)
	rng := rand.New(rand.NewSource(seed))
	var useful time.Duration
	for i := range durations {
		ds := make([]time.Duration, 6)
		for j := range ds {
			d := time.Duration(float64(time.Hour) * (0.5 + rng.ExpFloat64()))
			if d > 12*time.Hour {
				d = 12 * time.Hour
			}
			ds[j] = d
			useful += d
		}
		durations[i] = ds
	}

	run := func(bundled bool) (time.Duration, float64, error) {
		clk := vclock.NewVirtual(campaign.Epoch)
		m, err := cluster.New(cluster.Summit(nodes))
		if err != nil {
			return 0, 0, err
		}
		s, err := sched.New(clk, sched.Config{Machine: m, Policy: sched.FirstMatch, Mode: sched.Async})
		if err != nil {
			return 0, 0, err
		}
		for _, ds := range durations {
			if bundled {
				maxD := time.Duration(0)
				for _, d := range ds {
					if d > maxD {
						maxD = d
					}
				}
				if _, err := s.Submit(sched.Request{Name: "bundle", GPUs: 6, Cores: 18, Duration: maxD}); err != nil {
					return 0, 0, err
				}
			} else {
				for _, d := range ds {
					if _, err := s.Submit(sched.Request{Name: "sim", GPUs: 1, Cores: 3, Duration: d}); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		jobs := rounds * nodes
		if !bundled {
			jobs *= 6
		}
		start := clk.Now()
		for i := 0; i < 1000; i++ {
			clk.RunFor(time.Hour)
			_, running, finished := s.Counts()
			if running == 0 && finished == jobs {
				break
			}
		}
		makespan := clk.Now().Sub(start)
		gpuTime := float64(nodes*6) * makespan.Seconds()
		return makespan, useful.Seconds() / gpuTime, nil
	}
	var err error
	if res.BundledMakespan, res.BundledUtilization, err = run(true); err != nil {
		return res, err
	}
	if res.UnbundledMakespan, res.UnbundledUtil, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// bundlingText renders the ablation.
func bundlingText(r bundlingResult) string {
	return fmt.Sprintf("# bundling ablation: %d nodes x %d rounds of 6 straggler-prone sims\n"+
		"bundled (6 GPUs/job):   makespan %v, useful-GPU utilization %.0f%%\n"+
		"unbundled (1 GPU/job):  makespan %v, useful-GPU utilization %.0f%%\n"+
		"(paper: bundling wastes up to 5/6 of a node on one straggler)\n",
		r.Nodes, r.Rounds,
		r.BundledMakespan.Round(time.Minute), r.BundledUtilization*100,
		r.UnbundledMakespan.Round(time.Minute), r.UnbundledUtil*100)
}

// ---------------------------------------------------------------------------
// Inventory ablation (§4.4 Task 3)

// inventoryRow is one sweep point of the prepared-configuration trade-off.
type inventoryRow struct {
	Fraction   float64
	GPUMeanPct float64
	CPUMeanPct float64
}

// inventoryAblation sweeps the prepared-configuration inventory size — the
// paper's readiness-vs-staleness knob ("the sizes of these sets are a
// trade-off between readiness for availability of resources and simulating
// stale configurations"; it "governs the utilization of CPUs"). Small
// inventories starve GPU turnover; large ones burn CPU cores banking
// configurations that go stale.
func inventoryAblation(fractions []float64, seed int64) ([]inventoryRow, error) {
	var rows []inventoryRow
	for _, f := range fractions {
		cfg := campaign.DefaultConfig()
		cfg.Seed = seed
		cfg.Runs = []campaign.RunSpec{{Nodes: 8, Wall: 72 * time.Hour, Count: 1}}
		cfg.PatchesPerSnapshot = 20
		cfg.PatchQueueCap = 500
		cfg.SubmitPerMinute = 300
		cfg.SchedPolicy = sched.FirstMatch
		cfg.SchedMode = sched.Async
		cfg.ModelStatusLoad = false
		cfg.RetireMeanCG = units.Microsecond
		cfg.RetireMeanAA = 40 * units.Nanosecond
		cfg.InventoryFraction = f
		res, err := campaign.Run(cfg)
		if err != nil {
			return nil, err
		}
		var gpu, cpu stats.Summary
		// Skip the cold ramp: only the second half of the run reflects the
		// steady-state trade-off.
		evs := res.ProfileEvents[len(res.ProfileEvents)/2:]
		for _, ev := range evs {
			gpu.Add(ev.GPUFrac * 100)
			cpu.Add(ev.CPUFrac * 100)
		}
		rows = append(rows, inventoryRow{Fraction: f, GPUMeanPct: gpu.Mean(), CPUMeanPct: cpu.Mean()})
	}
	return rows, nil
}

// inventoryText renders the sweep.
func inventoryText(rows []inventoryRow) string {
	t := stats.Table{Header: []string{"inventory (x slots)", "GPU mean %", "CPU mean %"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.Fraction),
			fmt.Sprintf("%.1f", r.GPUMeanPct), fmt.Sprintf("%.1f", r.CPUMeanPct))
	}
	return "# inventory ablation: prepared-configuration buffer sizing (steady state)\n" +
		"# (paper: a full buffer prevents new setup jobs; too small starves GPUs)\n" + t.String()
}
