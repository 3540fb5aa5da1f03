// Package integration exercises the full stack end to end: workflow
// manager + Flux-like scheduler + maestro conductor + real data backends
// (kv cluster, indexed tar archives) + both feedback pipelines + the
// continuum/patch/encoder application path, under virtual time — the whole
// paper in miniature, with failures injected.
package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/continuum"
	"mummi/internal/core"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/feedback"
	"mummi/internal/kvstore"
	"mummi/internal/maestro"
	"mummi/internal/mlenc"
	"mummi/internal/patch"
	"mummi/internal/profile"
	"mummi/internal/sched"
	"mummi/internal/sim"
	"mummi/internal/taridx"
	"mummi/internal/units"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

// TestThreeScalePipelineOverKVStore runs a miniature three-scale campaign:
// a real continuum model feeds real patches through the real encoder into
// the patch selector; CG surrogates attached to simulation jobs stream RDF
// frames into a real KV cluster; the CG→continuum feedback updates the
// live continuum parameters; CG frames promote through the binned selector
// into AA jobs whose frames drive the AA→CG feedback.
func TestThreeScalePipelineOverKVStore(t *testing.T) {
	clk := vclock.NewVirtual(epoch)

	// Machine + scheduler + conductor.
	machine, err := cluster.New(cluster.Summit(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(clk, sched.Config{Machine: machine, Policy: sched.FirstMatch, Mode: sched.Async})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := maestro.NewConductor(clk, maestro.FluxBackend{S: s}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Real KV cluster as the feedback store.
	addrs, shutdown, err := kvstore.LaunchCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	store, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// The macro model and its feedback loop.
	contCfg := continuum.Config{GridN: 48, Domain: 150 * units.Nm,
		InnerLipids: 3, OuterLipids: 2, Proteins: 12, Seed: 9}
	macro, err := continuum.New(contCfg)
	if err != nil {
		t.Fatal(err)
	}
	cgFB, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: store, NewNS: "rdf-new", DoneNS: "rdf-done",
		Species: contCfg.Species(), States: continuum.NumProteinStates,
		Apply: macro.UpdateCouplings,
	})
	if err != nil {
		t.Fatal(err)
	}
	aaApplied := 0
	aaFB, err := feedback.NewAAToCG(feedback.AAConfig{
		Store: store, NewNS: "ss-new", DoneNS: "ss-done", Workers: 2,
		Apply: func(consensus string, v int) error { aaApplied = v; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Selectors: encoder-driven farthest point for patches; binned for
	// frames.
	encoder, err := mlenc.NewPatchEncoder(contCfg.Species(), patch.DefaultGridN, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	patchSel := dynim.NewQueueSet(9, 500, func(dynim.Point) string { return "all" })
	frameSel, err := dynim.NewBinned([]dynim.BinDim{
		{Lo: 0, Hi: 1, Bins: 8}, {Lo: 0, Hi: 1, Bins: 8}, {Lo: 0, Hi: 1, Bins: 8}}, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Simulation attachments: when a CG job starts, a CG surrogate streams
	// frames into the store on a virtual-time ticker, and offers encoded
	// frames to the AA selector; AA jobs stream secondary structures.
	var tickers []*vclock.Ticker
	cgStarted, aaStarted := 0, 0
	attachCG := func(p dynim.Point, id sched.JobID) {
		cgStarted++
		g := sim.NewCGSim("cg-"+p.ID, contCfg.Species(), cgStarted%continuum.NumProteinStates, nil, int64(cgStarted))
		tk := vclock.NewTicker(clk, 10*time.Minute, func(time.Time) {
			f := g.NextFrame()
			b, err := f.MarshalBinary()
			if err != nil {
				t.Error(err)
				return
			}
			if err := store.Put("rdf-new", f.ID(), b); err != nil {
				t.Error(err)
				return
			}
			// (tilt, rotation, depth) normalized by their physical ranges
			// [0°,180°], [0°,360°) and [-5 nm,5 nm] to the selector's [0,1]³.
			frameSel.Add(dynim.Point{ID: f.ID(), Coords: []float64{f.Tilt / 180, f.Rotation / 360, (f.Depth + 5) / 10}})
		})
		tickers = append(tickers, tk)
	}
	attachAA := func(p dynim.Point, id sched.JobID) {
		aaStarted++
		g := sim.NewAASim("aa-"+p.ID, int64(aaStarted))
		tk := vclock.NewTicker(clk, 30*time.Minute, func(time.Time) {
			f := g.NextFrame()
			b, err := f.Marshal()
			if err != nil {
				t.Error(err)
				return
			}
			if err := store.Put("ss-new", f.ID(), b); err != nil {
				t.Error(err)
			}
		})
		tickers = append(tickers, tk)
	}
	defer func() {
		for _, tk := range tickers {
			tk.Stop()
		}
	}()

	wm, err := core.New(core.Config{
		Clock: clk, Conductor: cond, PollEvery: 2 * time.Minute, Seed: 77,
		Couplings: []core.CouplingSpec{
			{
				Name:          "continuum-to-cg",
				Selector:      patchSel,
				SetupReq:      sched.Request{Name: "createsim", Cores: 24},
				SetupDuration: func(*rand.Rand) time.Duration { return 30 * time.Minute },
				SimReq:        sched.Request{Name: "cg-sim", Cores: 3, GPUs: 1},
				SimDuration: func(*rand.Rand, dynim.Point) time.Duration {
					return 8 * time.Hour
				},
				MaxSims: 8, ReadyTarget: 4, MaxSetups: 2,
				OnSimStart:    attachCG,
				Feedback:      cgFB,
				FeedbackEvery: 30 * time.Minute,
			},
			{
				Name:          "cg-to-aa",
				Selector:      frameSel,
				SetupReq:      sched.Request{Name: "backmap", Cores: 24},
				SetupDuration: func(*rand.Rand) time.Duration { return 45 * time.Minute },
				SimReq:        sched.Request{Name: "aa-sim", Cores: 3, GPUs: 1},
				SimDuration: func(*rand.Rand, dynim.Point) time.Duration {
					return 6 * time.Hour
				},
				MaxSims: 4, ReadyTarget: 2, MaxSetups: 1,
				OnSimStart:    attachAA,
				Feedback:      aaFB,
				FeedbackEvery: time.Hour,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Task 1 at application level: continuum snapshots → patches → encoder
	// → selector.
	snapTicker := vclock.NewTicker(clk, time.Hour, func(time.Time) {
		macro.Step(1 * units.Microsecond)
		snap := macro.Snapshot()
		ps, err := patch.CreateAll(snap, patch.DefaultSize, patch.DefaultGridN)
		if err != nil {
			t.Error(err)
			return
		}
		for _, p := range ps {
			enc, err := encoder.Encode(p)
			if err != nil {
				t.Error(err)
				return
			}
			uid := fmt.Sprintf("%s@%s", p.ID, clk.Now().Format("150405"))
			if err := wm.AddCandidate("continuum-to-cg", dynim.Point{ID: uid, Coords: enc}); err != nil {
				t.Error(err)
			}
		}
	})
	defer snapTicker.Stop()

	if err := wm.Start(); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(36 * time.Hour)
	wm.Stop()

	// The whole pipeline must have turned over.
	stats := wm.Stats()
	if cgStarted == 0 {
		t.Fatal("no CG simulations started")
	}
	if aaStarted == 0 {
		t.Fatalf("no AA simulations started (cg-to-aa stats: %+v)", stats[1])
	}
	if macro.ParamVersion() == 0 {
		t.Error("CG→continuum feedback never updated the macro model")
	}
	if aaApplied == 0 {
		t.Error("AA→CG feedback never applied a consensus")
	}
	// Feedback tagging: no processed frame left behind in active
	// namespaces after the last iteration... (new frames may have arrived
	// since; just require the done namespaces to be populated).
	doneRDF, err := store.Keys("rdf-done")
	if err != nil {
		t.Fatal(err)
	}
	if len(doneRDF) == 0 {
		t.Error("no RDF frames tagged processed")
	}
	doneSS, err := store.Keys("ss-done")
	if err != nil {
		t.Fatal(err)
	}
	if len(doneSS) == 0 {
		t.Error("no AA frames tagged processed")
	}
	if cgFB.TotalFrames() == 0 || aaFB.TotalFrames() == 0 {
		t.Errorf("feedback frame counts: cg=%d aa=%d", cgFB.TotalFrames(), aaFB.TotalFrames())
	}
}

// TestNodeFailureDrainAndRecovery injects a node failure mid-campaign: the
// node is drained (running jobs continue, nothing new lands there), its
// jobs are failed, and the workflow resubmits and completes everything.
func TestNodeFailureDrainAndRecovery(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	machine, err := cluster.New(cluster.Summit(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(clk, sched.Config{Machine: machine, Policy: sched.FirstMatch, Mode: sched.Async})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := maestro.NewConductor(clk, maestro.FluxBackend{S: s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := dynim.NewFarthestPoint(1, 0)
	var onNode0 []sched.JobID
	wm, err := core.New(core.Config{
		Clock: clk, Conductor: cond, PollEvery: time.Minute, Seed: 5,
		Couplings: []core.CouplingSpec{{
			Name: "c", Selector: sel,
			SetupReq:      sched.Request{Name: "setup", Cores: 24},
			SetupDuration: func(*rand.Rand) time.Duration { return 30 * time.Minute },
			SimReq:        sched.Request{Name: "sim", Cores: 3, GPUs: 1},
			SimDuration:   func(*rand.Rand, dynim.Point) time.Duration { return 12 * time.Hour },
			MaxSims:       12, ReadyTarget: 4, MaxSetups: 2,
			OnSimStart: func(p dynim.Point, id sched.JobID) {
				if j, ok := s.Job(id); ok && len(j.Alloc.Parts) > 0 && j.Alloc.Parts[0].Node == 0 {
					onNode0 = append(onNode0, id)
				}
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		wm.AddCandidate("c", dynim.Point{ID: fmt.Sprintf("p%02d", i), Coords: []float64{float64(i)}})
	}
	if err := wm.Start(); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(3 * time.Hour)
	if len(onNode0) == 0 {
		t.Fatal("nothing placed on node 0")
	}

	// Node 0 dies: drain it, fail its jobs (Flux's failure handling; the
	// tracker resubmits).
	s.Drain(0)
	for _, id := range onNode0 {
		if j, ok := s.Job(id); ok && j.State == sched.Running {
			if err := s.Fail(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.RunFor(2 * time.Hour)
	// Everything now runs on node 1 only.
	if machine.Node(0).FreeGPUs() != 6 {
		t.Errorf("drained node still hosts %d GPU jobs", 6-machine.Node(0).FreeGPUs())
	}
	_, running, _ := s.Counts()
	if running == 0 {
		t.Error("workflow stalled after node failure")
	}
	st := wm.Stats()[0]
	if st.FailedSims == 0 {
		t.Error("failures not recorded")
	}

	// Node repaired: undrain and confirm it fills again.
	s.Undrain(0)
	clk.RunFor(6 * time.Hour)
	if machine.Node(0).FreeGPUs() == 6 {
		t.Error("repaired node never reused")
	}
}

// TestArchiveLifecycleThroughWorkflow routes simulation outputs through the
// taridx backend end to end: frames written during the run land in
// archives, survive a reopen, and remain readable with a standard decoder
// semantics (same bytes back).
func TestArchiveLifecycleThroughWorkflow(t *testing.T) {
	dir := t.TempDir()
	store, err := datastore.Open(datastore.Config{Backend: datastore.BackendTaridx, Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewCGSim("arch", 4, 1, nil, 6)
	var ids []string
	var lastBytes []byte
	for i := 0; i < 50; i++ {
		f := g.NextFrame()
		b, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put("frames", f.ID(), b); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		lastBytes = b
	}
	// Feedback-style tagging into a second archive.
	for _, id := range ids[:25] {
		if err := store.Move("frames", id, "frames-done"); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	// Reopen (crash/restart) and verify.
	store2, err := datastore.Open(datastore.Config{Backend: datastore.BackendTaridx, Root: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	active, err := store2.Keys("frames")
	if err != nil {
		t.Fatal(err)
	}
	done, err := store2.Keys("frames-done")
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 25 || len(done) != 25 {
		t.Fatalf("after reopen: %d active, %d done", len(active), len(done))
	}
	got, err := store2.Get("frames", ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(lastBytes) {
		t.Error("frame corrupted across archive reopen")
	}
	// And the bytes still decode as a frame.
	f, err := sim.UnmarshalCGFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != ids[len(ids)-1] {
		t.Errorf("decoded frame id %q", f.ID())
	}
}

// TestOccupancyProfilerAgainstScheduler wires the profiler to a live
// scheduler and checks the occupancy series tracks reality.
func TestOccupancyProfilerAgainstScheduler(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	machine, err := cluster.New(cluster.Summit(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(clk, sched.Config{Machine: machine, Policy: sched.FirstMatch, Mode: sched.Async})
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(clk, 10*time.Minute, func() profile.Event {
		return profile.Event{GPUFrac: machine.GPUOccupancy(), CPUFrac: machine.CPUOccupancy()}
	})
	defer p.Stop()
	// Fill all six GPUs for 2 hours, then idle.
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(sched.Request{Name: "sim", GPUs: 1, Cores: 2, Duration: 2 * time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(4 * time.Hour)
	evs := p.Events()
	// Half the events at full occupancy, half idle.
	frac, mean, _ := profile.Headline(evs, 98)
	if frac < 0.4 || frac > 0.6 || mean < 40 || mean > 60 {
		t.Errorf("headline = %v, %v", frac, mean)
	}
}

// TestTaridxDirectAndStoreAgree sanity-checks that the taridx Store and a
// directly opened Archive see the same data.
func TestTaridxDirectAndStoreAgree(t *testing.T) {
	dir := t.TempDir()
	st, err := taridx.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ns", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	a, err := taridx.Open(dir + "/ns.tar")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got, err := a.Get("k1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("direct archive read = %q, %v", got, err)
	}
}
