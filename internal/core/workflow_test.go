package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"math/rand"

	"mummi/internal/cluster"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/feedback"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/sim"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	clk  *vclock.Virtual
	mach *cluster.Machine
	s    *sched.Scheduler
	cond *maestro.Conductor
}

func newRig(t *testing.T, nodes int) *rig {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	m, err := cluster.New(cluster.Summit(nodes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(clk, sched.Config{Machine: m, Policy: sched.FirstMatch, Mode: sched.Async})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := maestro.NewConductor(clk, maestro.FluxBackend{S: s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, mach: m, s: s, cond: cond}
}

func cgCoupling(sel dynim.Selector, maxSims, readyTarget int) CouplingSpec {
	return CouplingSpec{
		Name:          "continuum-to-cg",
		Selector:      sel,
		SetupReq:      sched.Request{Name: "createsim", Cores: 24},
		SetupDuration: func(rng *rand.Rand) time.Duration { return time.Hour },
		SimReq:        sched.Request{Name: "cg-sim", Cores: 3, GPUs: 1},
		SimDuration:   func(rng *rand.Rand, p dynim.Point) time.Duration { return 6 * time.Hour },
		MaxSims:       maxSims,
		ReadyTarget:   readyTarget,
	}
}

func TestWorkflowEndToEnd(t *testing.T) {
	r := newRig(t, 2) // 12 GPUs, 88 cores
	sel := dynim.NewFarthestPoint(2, 0)
	spec := cgCoupling(sel, 12, 4)
	var started, ended int
	spec.OnSimStart = func(p dynim.Point, id sched.JobID) { started++ }
	spec.OnSimEnd = func(p dynim.Point, id sched.JobID, st sched.State) { ended++ }
	w, err := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{spec}, PollEvery: 2 * time.Minute, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Offer 30 candidates, start, run one virtual day.
	for i := 0; i < 30; i++ {
		if err := w.AddCandidate("continuum-to-cg", dynim.Point{
			ID: fmt.Sprintf("patch%02d", i), Coords: []float64{float64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(24 * time.Hour)
	st := w.Stats()[0]
	if started == 0 || ended == 0 {
		t.Fatalf("no sims ran: started=%d ended=%d (stats %+v)", started, ended, st)
	}
	if st.CompletedSims == 0 {
		t.Errorf("no completed sims: %+v", st)
	}
	// Setup + sim pipeline: 1h setup then 6h sim; in 24h a GPU should cycle
	// ~3 sims; 12 GPUs ≈ 30+ sims total, bounded by candidates (30).
	if st.Launched < 12 {
		t.Errorf("launched only %d sims", st.Launched)
	}
	// GPUs should be busy at steady state.
	if r.mach.UsedGPUs() == 0 && st.Candidates > 0 {
		t.Error("machine idle with candidates available")
	}
}

func TestReadyBufferTargetRespected(t *testing.T) {
	r := newRig(t, 1)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 2, 3)
	w, err := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.AddCandidate("continuum-to-cg", dynim.Point{ID: fmt.Sprintf("p%03d", i), Coords: []float64{float64(i)}})
	}
	w.Start()
	r.clk.RunFor(90 * time.Minute) // setups (1h) done, sims running
	st := w.Stats()[0]
	// Ready + in-setup never exceeds the target: "a full buffer prevents
	// new setup jobs".
	if st.Ready+st.InSetup > 3 {
		t.Errorf("buffer overfilled: ready=%d insetup=%d target=3", st.Ready, st.InSetup)
	}
	if st.Running == 0 {
		t.Error("no sims running")
	}
}

func TestTotalCapStopsLaunching(t *testing.T) {
	r := newRig(t, 2)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 12, 6)
	spec.TotalCap = 5
	spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration { return 30 * time.Minute }
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec}})
	for i := 0; i < 50; i++ {
		w.AddCandidate("continuum-to-cg", dynim.Point{ID: fmt.Sprintf("p%03d", i), Coords: []float64{float64(i)}})
	}
	w.Start()
	r.clk.RunFor(48 * time.Hour)
	st := w.Stats()[0]
	if st.Launched != 5 || st.CompletedSims != 5 {
		t.Errorf("cap violated: launched=%d completed=%d", st.Launched, st.CompletedSims)
	}
}

func TestFailedSimResubmitted(t *testing.T) {
	r := newRig(t, 1)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 1, 1)
	var simJob sched.JobID
	starts := 0
	spec.OnSimStart = func(p dynim.Point, id sched.JobID) { starts++; simJob = id }
	spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration { return 0 } // manual completion
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec}})
	w.AddCandidate("continuum-to-cg", dynim.Point{ID: "only", Coords: []float64{1}})
	w.Start()
	r.clk.RunFor(2 * time.Hour) // setup (1h) + sim start
	if starts != 1 {
		t.Fatalf("starts = %d", starts)
	}
	// Kill the simulation: the tracker must resubmit it.
	if err := r.s.Fail(simJob); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(time.Hour)
	st := w.Stats()[0]
	if st.FailedSims != 1 {
		t.Errorf("FailedSims = %d", st.FailedSims)
	}
	if starts != 2 {
		t.Errorf("failed sim not resubmitted: starts = %d", starts)
	}
	// Completing the retry counts it done.
	if err := r.s.Complete(simJob); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(time.Hour)
	if st := w.Stats()[0]; st.CompletedSims != 1 {
		t.Errorf("CompletedSims = %d", st.CompletedSims)
	}
}

// recordingFeedback keeps every report its manager returns: the workflow
// counts feedback runs and retains nothing else.
type recordingFeedback struct {
	feedback.Manager
	reps []feedback.Report
}

func (r *recordingFeedback) Iterate() (feedback.Report, error) {
	rep, err := r.Manager.Iterate()
	r.reps = append(r.reps, rep)
	return rep, err
}

func TestFeedbackTickerRuns(t *testing.T) {
	r := newRig(t, 1)
	store := datastore.NewMemory()
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: store, NewNS: "new", DoneNS: "done", Species: 2, States: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stage some frames.
	g := sim.NewCGSim("s1", 2, 1, nil, 1)
	for i := 0; i < 10; i++ {
		f := g.NextFrame()
		b, _ := f.Marshal()
		store.Put("new", f.ID(), b)
	}
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 1, 1)
	rec := &recordingFeedback{Manager: fb}
	spec.Feedback = rec
	spec.FeedbackEvery = 10 * time.Minute
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec}})
	w.Start()
	r.clk.RunFor(35 * time.Minute)
	st := w.Stats()[0]
	if st.FeedbackRuns != 3 {
		t.Errorf("FeedbackRuns = %d, want 3", st.FeedbackRuns)
	}
	if reps := rec.reps; len(reps) != 3 || reps[0].Frames != 10 || reps[1].Frames != 0 {
		t.Errorf("reports = %+v", reps)
	}
	if fb.TotalFrames() != 10 {
		t.Errorf("frames processed = %d", fb.TotalFrames())
	}
}

func TestStaticJobsSubmittedAtStart(t *testing.T) {
	r := newRig(t, 160)
	sel := dynim.NewFarthestPoint(1, 0)
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings:  []CouplingSpec{cgCoupling(sel, 1, 1)},
		StaticJobs: []sched.Request{{Name: "continuum", NodeCount: 150, Cores: 24, Duration: 24 * time.Hour}},
	})
	w.Start()
	r.clk.RunFor(time.Hour)
	if r.mach.UsedCores() < 150*24 {
		t.Errorf("continuum job not running: %d cores used", r.mach.UsedCores())
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 1)
	sel := dynim.NewFarthestPoint(1, 0)
	good := cgCoupling(sel, 1, 1)
	cases := []Config{
		{Conductor: r.cond, Couplings: []CouplingSpec{good}},                      // no clock
		{Clock: r.clk, Couplings: []CouplingSpec{good}},                           // no conductor
		{Clock: r.clk, Conductor: r.cond},                                         // no couplings
		{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{{Name: "x"}}}, // no selector
		{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{good, good}},  // duplicate name
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// Feedback without interval rejected.
	bad := good
	store := datastore.NewMemory()
	fb, _ := feedback.NewCGToContinuum(feedback.CGConfig{Store: store, NewNS: "a", DoneNS: "b", Species: 1, States: 1})
	bad.Feedback = fb
	if _, err := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{bad}}); err == nil {
		t.Error("feedback without interval accepted")
	}
}

func TestAddCandidateUnknownCoupling(t *testing.T) {
	r := newRig(t, 1)
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
	if err := w.AddCandidate("nope", dynim.Point{ID: "x", Coords: []float64{1}}); err == nil {
		t.Error("unknown coupling accepted")
	}
}

func TestDoubleStartAndStop(t *testing.T) {
	r := newRig(t, 1)
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err == nil {
		t.Error("double Start accepted")
	}
	w.Stop()
	w.Stop() // idempotent
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	r := newRig(t, 2)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 4, 4)
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec}, Seed: 9})
	for i := 0; i < 20; i++ {
		w.AddCandidate("continuum-to-cg", dynim.Point{ID: fmt.Sprintf("p%03d", i), Coords: []float64{float64(i)}})
	}
	w.Start()
	r.clk.RunFor(4 * time.Hour) // setups done, sims running
	ck, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	preStats := w.Stats()[0]
	w.Stop()

	// "Crash": build a fresh rig and WM over the same selector — selectors
	// outlive the manager — and restore the state.
	r2 := newRig(t, 2)
	spec2 := cgCoupling(sel, 4, 4)
	w2, _ := New(Config{Clock: r2.clk, Conductor: r2.cond, Couplings: []CouplingSpec{spec2}, Seed: 9})
	if err := w2.RestoreState(ck); err != nil {
		t.Fatal(err)
	}
	// Nothing lost: every configuration is queued as a candidate, awaiting
	// (re)setup, ready/resumed, or already completed.
	st := w2.Stats()[0]
	total := st.Ready + st.InSetup + st.Candidates + preStats.CompletedSims
	if total != 20 {
		t.Errorf("configurations lost across restore: ready=%d insetup=%d candidates=%d completed=%d",
			st.Ready, st.InSetup, st.Candidates, preStats.CompletedSims)
	}
	// The restored campaign keeps making progress.
	w2.Start()
	r2.clk.RunFor(24 * time.Hour)
	if got := w2.Stats()[0].CompletedSims; got == 0 {
		t.Error("restored workflow made no progress")
	}
}

// TestRestoreErrors pins what a bad checkpoint is answered with: the codec's
// texts for junk and for a document with no coupling, the restore's for a
// coupling the manager does not have and for a restore after Start.
func TestRestoreErrors(t *testing.T) {
	r := newRig(t, 1)
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
	for _, tc := range []struct {
		doc, want string
		decodes   bool
	}{
		{doc: "junk", want: "core: corrupt checkpoint: invalid character"},
		{doc: `{"couplings":[]}`, want: "core: corrupt checkpoint: no couplings"},
		{doc: `{}`, want: "core: corrupt checkpoint: no couplings"},
		{doc: `{"couplings":[{"name":"ghost"}]}`, want: `core: checkpoint has unknown coupling "ghost"`, decodes: true},
	} {
		_, err := DecodeCheckpoint([]byte(tc.doc))
		if tc.decodes != (err == nil) || (err != nil && !strings.HasPrefix(err.Error(), tc.want)) {
			t.Errorf("DecodeCheckpoint(%s) = %v, want %q", tc.doc, err, tc.want)
		}
		if err := w.RestoreState([]byte(tc.doc)); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("RestoreState(%s) = %v, want %q", tc.doc, err, tc.want)
		}
	}
	w.Start()
	err := w.RestoreState([]byte(`{"couplings":[{"name":"continuum-to-cg"}]}`))
	if err == nil || err.Error() != "core: restore must precede Start" {
		t.Errorf("restore after Start = %v", err)
	}
}

func TestWatchdogKillsHungJob(t *testing.T) {
	r := newRig(t, 1)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 1, 1)
	spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration { return 6 * time.Hour }
	var simJobs []sched.JobID
	spec.OnSimStart = func(p dynim.Point, id sched.JobID) { simJobs = append(simJobs, id) }
	tel := telemetry.Nop()
	w, err := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec},
		PollEvery: 2 * time.Minute, WatchdogGrace: 1.5, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	w.AddCandidate("continuum-to-cg", dynim.Point{ID: "only", Coords: []float64{1}})
	w.Start()
	r.clk.RunFor(2 * time.Hour) // setup (1h) + sim start
	if len(simJobs) != 1 {
		t.Fatalf("starts = %d", len(simJobs))
	}
	// Wedge the simulation: it will never auto-complete; deadline is
	// start + 1.5×6h = 9h.
	if !r.s.Hang(simJobs[0]) {
		t.Fatal("could not hang the sim")
	}
	r.clk.RunFor(12 * time.Hour)
	if len(simJobs) != 2 {
		t.Fatalf("watchdog did not resubmit the hung sim: starts = %d", len(simJobs))
	}
	if got, _ := r.s.Job(simJobs[0]); got.State != sched.Failed {
		t.Errorf("hung job = %v, want Failed", got.State)
	}
	if got := tel.Registry().Counter("wm.watchdog_kills_total{coupling=continuum-to-cg}").Value(); got != 1 {
		t.Errorf("watchdog_kills_total = %d, want 1", got)
	}
	// The healthy retry completes and clears the configuration's budget.
	r.clk.RunFor(12 * time.Hour)
	if st := w.Stats()[0]; st.CompletedSims != 1 {
		t.Errorf("CompletedSims = %d after retry", st.CompletedSims)
	}
}

func TestWatchdogKillBudgetExhausted(t *testing.T) {
	r := newRig(t, 1)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 1, 1)
	spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration { return time.Hour }
	starts := 0
	spec.OnSimStart = func(p dynim.Point, id sched.JobID) {
		starts++
		r.s.Hang(id) // this configuration wedges every single time
	}
	tel := telemetry.Nop()
	w, _ := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{spec},
		PollEvery: 2 * time.Minute, WatchdogGrace: 1.5, WatchdogMaxKills: 2, Telemetry: tel})
	w.AddCandidate("continuum-to-cg", dynim.Point{ID: "cursed", Coords: []float64{1}})
	w.Start()
	r.clk.RunFor(48 * time.Hour)
	// Two kills, then the budget is exhausted and the third run is left
	// alone rather than cycling forever.
	if starts != 3 {
		t.Errorf("starts = %d, want 3 (initial + 2 watchdog retries)", starts)
	}
	reg := tel.Registry()
	if got := reg.Counter("wm.watchdog_kills_total{coupling=continuum-to-cg}").Value(); got != 2 {
		t.Errorf("watchdog_kills_total = %d, want 2", got)
	}
	if got := reg.Counter("wm.watchdog_exhausted_total{coupling=continuum-to-cg}").Value(); got == 0 {
		t.Error("watchdog_exhausted_total never counted")
	}
	if st := w.Stats()[0]; st.CompletedSims != 0 {
		t.Errorf("CompletedSims = %d for a permanently hung config", st.CompletedSims)
	}
}

func TestDrainUndrainMidCampaign(t *testing.T) {
	r := newRig(t, 2)
	sel := dynim.NewFarthestPoint(1, 0)
	spec := cgCoupling(sel, 12, 6)
	// Cheap, quick setups so the ready buffer keeps all 12 GPUs loaded and
	// the placement pattern (not setup throughput) is what the test sees.
	spec.SetupReq = sched.Request{Name: "createsim", Cores: 4}
	spec.SetupDuration = func(rng *rand.Rand) time.Duration { return 30 * time.Minute }
	spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration { return 3 * time.Hour }
	live := map[sched.JobID]bool{}
	spec.OnSimStart = func(p dynim.Point, id sched.JobID) { live[id] = true }
	spec.OnSimEnd = func(p dynim.Point, id sched.JobID, st sched.State) { delete(live, id) }
	w, err := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{spec}, PollEvery: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.AddCandidate("continuum-to-cg", dynim.Point{ID: fmt.Sprintf("p%03d", i),
			Coords: []float64{float64(i)}})
	}
	w.Start()
	onNode := func(node int) int {
		n := 0
		for id := range live {
			j, ok := r.s.Job(id)
			if ok && j.State == sched.Running && j.Alloc.Parts[0].Node == node {
				n++
			}
		}
		return n
	}
	r.clk.RunFor(8 * time.Hour) // steady state: both nodes loaded
	if onNode(0) == 0 || onNode(1) == 0 {
		t.Fatalf("not at steady state: node0=%d node1=%d", onNode(0), onNode(1))
	}

	r.s.Drain(0)
	// Running jobs on the drained node finish their 3h normally; no new
	// match may land there while the other node keeps cycling.
	r.clk.RunFor(4 * time.Hour)
	if got := onNode(0); got != 0 {
		t.Errorf("drained node still hosts %d sims after their durations elapsed", got)
	}
	if got := onNode(1); got == 0 {
		t.Error("healthy node starved while node 0 was drained")
	}
	r.clk.RunFor(4 * time.Hour)
	if got := onNode(0); got != 0 {
		t.Errorf("drained node repopulated: %d sims", got)
	}

	r.s.Undrain(0)
	r.clk.RunFor(4 * time.Hour)
	if got := onNode(0); got == 0 {
		t.Error("undrained node never woke: no sims placed on it")
	}
}
