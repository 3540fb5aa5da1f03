// Package core implements the MuMMI Workflow Manager (WM, §4.4) — the
// coordination half of the paper's two-part architecture. The WM couples
// resolution scales pairwise: it ingests selection candidates produced from
// coarse-scale data (Task 1), drives ML-based selection (Task 2), schedules
// and tracks tens of thousands of jobs to keep the machine loaded (Task 3),
// and runs frequent feedback iterations (Task 4). Everything
// application-specific — what a scale is, how a candidate is encoded, what
// a setup or simulation job runs, how feedback aggregates — enters through
// the CouplingSpec plug points, which is what makes the framework
// generalizable beyond the RAS-RAF-membrane campaign (§4.5).
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mummi/internal/dynim"
	"mummi/internal/feedback"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// CouplingSpec defines one pairwise coupling between a coarser scale (the
// candidate producer) and a finer one (the simulations spawned). The
// RAS-RAF campaign instantiates two: continuum→CG and CG→AA.
type CouplingSpec struct {
	// Name identifies the coupling ("continuum-to-cg").
	Name string
	// Selector decides which coarse candidates are promoted (Task 2).
	Selector dynim.Selector
	// SetupReq is the CPU-only setup job that transforms a selected coarse
	// configuration into a runnable fine one (createsim, backmapping).
	SetupReq sched.Request
	// SetupDuration samples a setup job's runtime.
	SetupDuration func(rng *rand.Rand) time.Duration
	// SimReq is the fine-scale simulation job (one GPU in the campaign).
	SimReq sched.Request
	// SimDuration samples a simulation's wall-clock allotment for the
	// selected point.
	SimDuration func(rng *rand.Rand, p dynim.Point) time.Duration
	// MaxSims is the concurrent fine-scale simulation target (the GPU
	// share assigned to this coupling).
	MaxSims int
	// ReadyTarget sizes the prepared-configuration buffer: "sets of CG and
	// AA simulations are kept prepared (setup completed) in anticipation"
	// — a user-configurable trade-off between readiness and staleness that
	// also governs CPU occupancy.
	ReadyTarget int
	// MaxSetups caps concurrent setup jobs independently of the inventory
	// target (0 = uncapped): inventory can be deep (it persists across
	// allocations) while CPU-core demand stays within what the machine can
	// place without stalling the FCFS queue.
	MaxSetups int
	// Feedback, when non-nil, runs every FeedbackEvery (Task 4).
	Feedback      feedback.Manager
	FeedbackEvery time.Duration
	// OnSimStart/OnSimEnd observe simulation lifecycle (the application
	// wires frame production and analysis here).
	OnSimStart func(p dynim.Point, id sched.JobID)
	OnSimEnd   func(p dynim.Point, id sched.JobID, st sched.State)
}

func (c *CouplingSpec) validate() error {
	if c.Name == "" || c.Selector == nil {
		return errors.New("core: coupling needs a name and a selector")
	}
	if c.MaxSims < 1 || c.ReadyTarget < 0 {
		return fmt.Errorf("core: coupling %s: MaxSims %d / ReadyTarget %d invalid",
			c.Name, c.MaxSims, c.ReadyTarget)
	}
	if c.Feedback != nil && c.FeedbackEvery <= 0 {
		return fmt.Errorf("core: coupling %s: feedback without interval", c.Name)
	}
	return nil
}

// Config assembles a Workflow.
type Config struct {
	Clock     *vclock.Virtual
	Conductor *maestro.Conductor
	Couplings []CouplingSpec
	// PollEvery is the job-scan cadence ("the WM regularly scans all
	// running jobs ... and submits new jobs ... as soon as [resources]
	// become available"; every few minutes in the campaign).
	PollEvery time.Duration
	// StaticJobs are submitted once at Start — the continuum simulation's
	// 150-node job in the campaign.
	StaticJobs []sched.Request
	Seed       int64
	// WatchdogGrace, when positive, arms the hung-job watchdog: a tracked
	// job still running after Grace × its submitted Duration is presumed
	// hung (a wedged simulation never reports completion on its own), is
	// killed through the conductor, and re-enters the machine through the
	// normal failure/resubmission path. Jobs submitted without a Duration
	// are exempt. A sensible grace is 1.2–2.0. Each configuration gets at
	// most watchdogMaxKills kills.
	WatchdogGrace float64
	// Telemetry receives per-task spans and WM metrics (nil = discarded).
	// See docs/OBSERVABILITY.md for the emitted names.
	Telemetry *telemetry.Telemetry
	// AllowNoCouplings permits building a Workflow with an empty coupling
	// set. A distributed-fleet standby instance starts with nothing to
	// manage and gains couplings at runtime through AdoptCoupling; outside
	// that use an empty set is almost certainly a misconfiguration, so the
	// default keeps rejecting it.
	AllowNoCouplings bool
}

// CouplingStats reports one coupling's live state.
type CouplingStats struct {
	Name          string
	Candidates    int
	Ready         int
	InSetup       int
	Running       int
	Launched      int
	CompletedSims int
	FailedSims    int
	FailedSetups  int
	FeedbackRuns  int
}

// watchdogMaxKills caps watchdog kills per configuration so one
// persistently hung configuration cannot kill/resubmit forever; past the cap
// the job is left alone and wm.watchdog_exhausted_total counts it.
const watchdogMaxKills = 3

type jobRole int

const (
	roleSetup jobRole = iota
	roleSim
	roleStatic
)

type jobRecord struct {
	role     jobRole
	coupling int
	point    dynim.Point
	// dur is the submitted modeled duration; deadline is set at job start
	// to now + WatchdogGrace×dur (zero = watchdog-exempt).
	dur      time.Duration
	deadline time.Time
}

// jobDeadline is one watchdog appointment: look at job id at time at.
type jobDeadline struct {
	at time.Time
	id sched.JobID
}

// deadlineHeap orders appointments earliest first. It implements
// container/heap.Interface.
type deadlineHeap []jobDeadline

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *deadlineHeap) Push(x any) { *h = append(*h, x.(jobDeadline)) }

// Pop implements heap.Interface.
func (h *deadlineHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type couplingState struct {
	spec CouplingSpec
	// ready holds the prepared configurations: launches take its front,
	// finished setups join its back and failed simulations return to its
	// front.
	ready sched.Ring[dynim.Point]
	// redoSetup holds already-selected points whose setup must (re)run —
	// populated by restore for setups interrupted by a crash, and by the
	// failure path. They take priority over fresh selections.
	redoSetup sched.Ring[dynim.Point]
	// pendingSetup/pendingSim count submissions in flight through the
	// throttled conductor (no JobID yet).
	pendingSetup int
	pendingSim   int
	inSetup      int
	running      int
	launched     int
	completed    int
	failedSims   int
	failedSetups int
	feedbackRuns int
	m            couplingMetrics
}

// couplingMetrics are one coupling's wm.* handles, labelled by coupling.
type couplingMetrics struct {
	candidates, simsLaunched, selections, setupsLaunched, setupsCompleted, setupsFailed,
	simsCompleted, simsFailed, watchdogKills, watchdogExhausted,
	feedbackRuns, feedbackFailed telemetry.Lazy[telemetry.Counter]
	ready, running, inSetup telemetry.Lazy[telemetry.Gauge]
}

// Workflow is the workflow manager. Its four tasks are callbacks on the
// clock — candidate ingest, the poll ticker, the scheduler's start and finish
// callbacks, the feedback tickers — so a Workflow is not safe for concurrent
// use: event order on the goroutine that drives the clock stands in for the
// paper's locking (DESIGN.md §6).
type Workflow struct {
	clk  *vclock.Virtual
	cond *maestro.Conductor
	rng  *rand.Rand
	tel  *telemetry.Telemetry

	polls, watchdogKillErrors telemetry.Lazy[telemetry.Counter]

	couplings []*couplingState
	jobs      sched.JobTable[jobRecord]
	poll      *vclock.Ticker
	fbTickers []*vclock.Ticker
	started   bool
	stopped   bool
	static    []sched.Request
	pollEvery time.Duration

	// Hung-job watchdog state (Task 3 armoring): kills are counted per
	// coupling/configuration so a wedged configuration is abandoned after
	// watchdogMaxKills rather than looping forever.
	watchdogGrace float64
	watchdogKills map[string]int
	// deadlines holds one appointment per deadline ever set; an entry whose
	// job is gone, or whose recorded deadline has since changed, is dropped
	// when it comes due (lazy deletion).
	deadlines deadlineHeap
}

// New validates the configuration and builds a Workflow (not yet running).
func New(cfg Config) (*Workflow, error) {
	if cfg.Clock == nil || cfg.Conductor == nil {
		return nil, errors.New("core: config needs a clock and a conductor")
	}
	if len(cfg.Couplings) == 0 && !cfg.AllowNoCouplings {
		return nil, errors.New("core: no couplings configured")
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 2 * time.Minute
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Nop()
	}
	w := &Workflow{
		clk:           cfg.Clock,
		cond:          cfg.Conductor,
		rng:           rand.New(rand.NewSource(cfg.Seed + 1)),
		tel:           tel,
		static:        cfg.StaticJobs,
		pollEvery:     cfg.PollEvery,
		watchdogGrace: cfg.WatchdogGrace,
		watchdogKills: make(map[string]int),
	}
	names := map[string]bool{}
	for i := range cfg.Couplings {
		spec := cfg.Couplings[i]
		if err := spec.validate(); err != nil {
			return nil, err
		}
		if names[spec.Name] {
			return nil, fmt.Errorf("core: duplicate coupling %q", spec.Name)
		}
		names[spec.Name] = true
		w.couplings = append(w.couplings, &couplingState{spec: spec})
	}
	w.cond.OnFinish(w.onJobFinish)
	w.cond.OnStart(w.onJobStart)
	return w, nil
}

// onJobStart fires when the scheduler actually places a job (not at
// submission): simulation start observers see real start times, which the
// campaign's progress accounting depends on.
func (w *Workflow) onJobStart(id sched.JobID) {
	rec, ok := w.jobs.Get(id)
	if ok && w.watchdogGrace > 0 && rec.dur > 0 {
		rec.deadline = w.clk.Now().Add(time.Duration(w.watchdogGrace * float64(rec.dur)))
		w.jobs.Put(id, rec)
		heap.Push(&w.deadlines, jobDeadline{rec.deadline, id})
	}
	if ok && rec.role == roleSim {
		if cb := w.couplings[rec.coupling].spec.OnSimStart; cb != nil {
			cb(rec.point, id)
		}
	}
}

// Start submits static jobs and begins the poll and feedback tickers.
func (w *Workflow) Start() error {
	if w.started {
		return errors.New("core: already started")
	}
	w.started = true
	for _, req := range w.static {
		if err := w.cond.Submit(req, nil); err != nil {
			return err
		}
	}
	w.poll = vclock.NewTicker(w.clk, w.pollEvery, func(time.Time) { w.Poll() })
	for i, cs := range w.couplings {
		if cs.spec.Feedback == nil {
			continue
		}
		idx := i
		w.fbTickers = append(w.fbTickers,
			vclock.NewTicker(w.clk, cs.spec.FeedbackEvery, func(time.Time) {
				w.runFeedback(idx)
			}))
	}
	w.Poll() // load the machine immediately rather than waiting a period
	return nil
}

// Stop halts tickers; running jobs continue in the scheduler.
func (w *Workflow) Stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	if w.poll != nil {
		w.poll.Stop()
	}
	for _, t := range w.fbTickers {
		t.Stop()
	}
}

// AddCandidate offers a coarse-scale candidate to a coupling's selector
// (Task 1 hands patches here; the distributed CG analysis hands frames).
func (w *Workflow) AddCandidate(coupling string, p dynim.Point) error {
	cs := w.findCoupling(coupling)
	if cs == nil {
		return fmt.Errorf("core: unknown coupling %q", coupling)
	}
	sp := w.tel.StartSpan("wm", "task1.ingest")
	if sp != nil {
		sp.Arg("coupling", coupling) // boxing the name costs an allocation
	}
	err := cs.spec.Selector.Add(p)
	sp.End()
	if err == nil {
		cs.m.candidates.Get(w.tel, "wm.candidates_total", "coupling", coupling).Inc()
	}
	return err
}

func (w *Workflow) findCoupling(name string) *couplingState {
	for _, cs := range w.couplings {
		if cs.spec.Name == name {
			return cs
		}
	}
	return nil
}

// Poll performs one Task-3 scan: replace finished simulations and keep the
// ready buffers topped up. It is normally driven by the ticker but exposed
// for deterministic tests.
func (w *Workflow) Poll() {
	sp := w.tel.StartSpan("wm", "task3.poll")
	if w.stopped {
		sp.End()
		return
	}
	w.polls.Get(w.tel, "wm.polls_total").Inc()
	for i := range w.couplings {
		w.pollCoupling(i)
	}
	overdue := w.watchdogSweep()
	sp.End()
	// Kills follow the sweep: Fail drives the backend's terminal callback,
	// which re-enters onJobFinish and must see the sweep's bookkeeping done.
	for _, id := range overdue {
		if err := w.cond.Fail(id); err != nil && !errors.Is(err, sched.ErrAlreadyTerminal) {
			w.watchdogKillErrors.Get(w.tel, "wm.watchdog_kill_errors_total").Inc()
		}
	}
}

// watchdogSweep finds tracked jobs past their deadlines and charges
// their kill budgets, returning the IDs to kill in ascending order. It
// visits only the appointments that have come due, not every tracked job.
func (w *Workflow) watchdogSweep() []sched.JobID {
	if w.watchdogGrace <= 0 {
		return nil
	}
	now := w.clk.Now()
	var due []sched.JobID
	for len(w.deadlines) > 0 && !now.Before(w.deadlines[0].at) {
		e := heap.Pop(&w.deadlines).(jobDeadline)
		if rec, ok := w.jobs.Get(e.id); ok && rec.deadline.Equal(e.at) {
			due = append(due, e.id)
		}
	}
	slices.Sort(due)
	var overdue []sched.JobID
	for _, id := range slices.Compact(due) {
		rec, _ := w.jobs.Get(id)
		cs := w.couplings[rec.coupling]
		name := cs.spec.Name
		key := name + "/" + rec.point.ID
		if w.watchdogKills[key] >= watchdogMaxKills {
			cs.m.watchdogExhausted.Get(w.tel, "wm.watchdog_exhausted_total", "coupling", name).Inc()
			// Stop reconsidering it every poll: zero the deadline.
			rec.deadline = time.Time{}
			w.jobs.Put(id, rec)
			continue
		}
		w.watchdogKills[key]++
		cs.m.watchdogKills.Get(w.tel, "wm.watchdog_kills_total", "coupling", name).Inc()
		overdue = append(overdue, id)
		// If the kill fails the job is still overdue at the next poll.
		heap.Push(&w.deadlines, jobDeadline{rec.deadline, id})
	}
	return overdue
}

// pollCoupling is one coupling's share of Poll.
func (w *Workflow) pollCoupling(i int) {
	cs := w.couplings[i]
	spec := &cs.spec
	defer w.updateGauges(i)

	// 1. Spawn simulations from the ready buffer up to the concurrency
	// target.
	for cs.running+cs.pendingSim < spec.MaxSims && cs.ready.Len() > 0 {
		p := cs.ready.PopFront()
		cs.pendingSim++
		cs.launched++
		req := spec.SimReq
		if spec.SimDuration != nil {
			req.Duration = spec.SimDuration(w.rng, p)
		}
		cs.m.simsLaunched.Get(w.tel, "wm.sims_launched_total", "coupling", spec.Name).Inc()
		w.submit(req, i, roleSim, p)
	}

	// 2. Keep the prepared buffer at target: new selections trigger setup
	// jobs. A full buffer deliberately idles CPUs (anti-staleness).
	want := spec.ReadyTarget - (cs.ready.Len() + cs.inSetup + cs.pendingSetup)
	if spec.MaxSetups > 0 {
		if room := spec.MaxSetups - (cs.inSetup + cs.pendingSetup); room < want {
			want = room
		}
	}
	if want <= 0 {
		return
	}
	// Interrupted setups re-run first; only then are fresh selections made.
	var points []dynim.Point
	for want > 0 && cs.redoSetup.Len() > 0 {
		points = append(points, cs.redoSetup.PopFront())
		want--
	}
	if want > 0 {
		// Task 2: drive the importance sampler. The span is stamped on the
		// telemetry clock (virtual in campaign replays), so it is a
		// deterministic replay artifact.
		selStart := w.tel.Now()
		sel := spec.Selector.Select(want)
		if w.tel.Tracing() { // boxing the arguments costs allocations
			w.tel.RecordSpan("wm", "task2.select", selStart, w.tel.Now().Sub(selStart),
				"coupling", spec.Name, "want", want, "got", len(sel))
		}
		cs.m.selections.Get(w.tel, "wm.selections_total", "coupling", spec.Name).Add(int64(len(sel)))
		points = append(points, sel...)
	}
	for _, p := range points {
		cs.pendingSetup++
		req := spec.SetupReq
		if spec.SetupDuration != nil {
			req.Duration = spec.SetupDuration(w.rng)
		}
		cs.m.setupsLaunched.Get(w.tel, "wm.setups_launched_total", "coupling", spec.Name).Inc()
		w.submit(req, i, roleSetup, p)
	}
}

// updateGauges refreshes the per-coupling live-state gauges.
func (w *Workflow) updateGauges(i int) {
	cs := w.couplings[i]
	name := cs.spec.Name
	cs.m.ready.Get(w.tel, "wm.ready", "coupling", name).Set(float64(cs.ready.Len()))
	cs.m.running.Get(w.tel, "wm.running", "coupling", name).Set(float64(cs.running + cs.pendingSim))
	cs.m.inSetup.Get(w.tel, "wm.in_setup", "coupling", name).Set(float64(cs.inSetup + cs.pendingSetup))
}

// submit routes one job through the conductor; the conductor's callback
// records the job once the throttled submission happens. The callback
// captures the request's duration, not the whole request: it is allocated
// once per job.
func (w *Workflow) submit(req sched.Request, coupling int, role jobRole, p dynim.Point) {
	dur := req.Duration
	err := w.cond.Submit(req, func(id sched.JobID, err error) {
		cs := w.couplings[coupling]
		switch role {
		case roleSetup:
			cs.pendingSetup--
			if err != nil {
				cs.failedSetups++
				// Submission failure: the selection stands; re-run the setup.
				cs.redoSetup.PushBack(p)
			} else {
				cs.inSetup++
				w.jobs.Put(id, jobRecord{role: roleSetup, coupling: coupling, point: p, dur: dur})
			}
		case roleSim:
			cs.pendingSim--
			if err != nil {
				cs.failedSims++
				cs.launched--
				cs.ready.PushBack(p)
			} else {
				cs.running++
				w.jobs.Put(id, jobRecord{role: roleSim, coupling: coupling, point: p, dur: dur})
			}
		}
	})
	if err != nil {
		// Conductor closed: undo optimistic counters.
		cs := w.couplings[coupling]
		if role == roleSetup {
			cs.pendingSetup--
		} else {
			cs.pendingSim--
			cs.launched--
		}
	}
}

// onJobFinish is the conductor's terminal-state callback (Task 3's
// completion scan, event-driven).
func (w *Workflow) onJobFinish(id sched.JobID, st sched.State) {
	rec, ok := w.jobs.Get(id)
	if !ok {
		return // static or foreign job
	}
	w.jobs.Remove(id)
	cs := w.couplings[rec.coupling]
	var onEnd func(dynim.Point, sched.JobID, sched.State)
	switch rec.role {
	case roleSetup:
		cs.inSetup--
		if st == sched.Completed {
			// Setup produced a runnable configuration: queue it for the
			// corresponding simulation.
			cs.ready.PushBack(rec.point)
			cs.m.setupsCompleted.Get(w.tel, "wm.setups_completed_total", "coupling", cs.spec.Name).Inc()
		} else {
			cs.failedSetups++
			// "resubmits failed ones": the same configuration re-runs setup.
			cs.redoSetup.PushBack(rec.point)
			cs.m.setupsFailed.Get(w.tel, "wm.setups_failed_total", "coupling", cs.spec.Name).Inc()
		}
	case roleSim:
		cs.running--
		if st == sched.Completed {
			cs.completed++
			// A clean completion clears the configuration's watchdog budget.
			delete(w.watchdogKills, cs.spec.Name+"/"+rec.point.ID)
			cs.m.simsCompleted.Get(w.tel, "wm.sims_completed_total", "coupling", cs.spec.Name).Inc()
		} else {
			cs.failedSims++
			// "resubmits failed ones": the configuration returns to the
			// front of the ready queue.
			cs.ready.PushFront(rec.point)
			cs.launched--
			cs.m.simsFailed.Get(w.tel, "wm.sims_failed_total", "coupling", cs.spec.Name).Inc()
		}
		onEnd = cs.spec.OnSimEnd
	}
	// Re-engage resources immediately rather than waiting for the next
	// poll tick — unless the manager was already stopped when the job
	// finished.
	stopped := w.stopped
	if onEnd != nil {
		onEnd(rec.point, id, st)
	}
	if !stopped {
		w.pollCoupling(rec.coupling)
	}
}

// runFeedback performs one Task-4 iteration for coupling i. An iteration
// runs to completion inside its tick, so the next tick can never find the
// previous one still running.
func (w *Workflow) runFeedback(i int) {
	if w.stopped {
		return
	}
	cs := w.couplings[i]
	name := cs.spec.Name
	sp := w.tel.StartSpan("wm", "task4.feedback").Arg("coupling", name)
	_, err := cs.spec.Feedback.Iterate()
	sp.End()
	if err == nil {
		cs.feedbackRuns++
		cs.m.feedbackRuns.Get(w.tel, "wm.feedback_runs_total", "coupling", name).Inc()
	} else {
		cs.m.feedbackFailed.Get(w.tel, "wm.feedback_failed_total", "coupling", name).Inc()
	}
}

// Stats snapshots every coupling's state.
func (w *Workflow) Stats() []CouplingStats {
	out := make([]CouplingStats, len(w.couplings))
	for i, cs := range w.couplings {
		out[i] = w.couplingStats(cs)
	}
	return out
}

// couplingStats snapshots one coupling's state.
func (w *Workflow) couplingStats(cs *couplingState) CouplingStats {
	return CouplingStats{
		Name:          cs.spec.Name,
		Candidates:    cs.spec.Selector.Len(),
		Ready:         cs.ready.Len(),
		InSetup:       cs.inSetup + cs.pendingSetup + cs.redoSetup.Len(),
		Running:       cs.running + cs.pendingSim,
		Launched:      cs.launched,
		CompletedSims: cs.completed,
		FailedSims:    cs.failedSims,
		FailedSetups:  cs.failedSetups,
		FeedbackRuns:  cs.feedbackRuns,
	}
}

// Checkpoint / restore (§4.4 resilience: "can be restored completely after
// any such crash without much loss of data"). The record and its codec
// are in checkpoint.go.

// couplingCkpt captures one coupling's checkpoint record. ids is the
// sorted live-job sweep shared by every coupling.
func (w *Workflow) couplingCkpt(cs *couplingState, ids []sched.JobID) CouplingCheckpoint {
	c := CouplingCheckpoint{
		Name:      cs.spec.Name,
		Ready:     cs.ready.AppendTo(nil),
		InSetup:   cs.redoSetup.AppendTo(nil),
		Launched:  cs.launched,
		Completed: cs.completed,
	}
	for _, id := range ids {
		rec, _ := w.jobs.Get(id)
		if w.couplings[rec.coupling] != cs {
			continue
		}
		if rec.role == roleSim {
			c.RunningSims = append(c.RunningSims, rec.point)
		} else {
			c.InSetup = append(c.InSetup, rec.point)
		}
	}
	return c
}

// Checkpoint serializes the WM's recoverable state.
func (w *Workflow) Checkpoint() ([]byte, error) {
	// Deterministic checkpoint: jobs are recorded in ascending ID order
	// (campaign replays depend on it). One sweep serves every coupling.
	ids := w.jobs.Ascending()
	cks := make([]CouplingCheckpoint, len(w.couplings))
	for i, cs := range w.couplings {
		cks[i] = w.couplingCkpt(cs, ids)
	}
	return EncodeCheckpoint(cks...)
}

// CheckpointCoupling captures a single coupling's recoverable state — the
// per-coupling unit a distributed WM fleet flushes through the datastore so
// a surviving instance can adopt the coupling after its owner crashes.
func (w *Workflow) CheckpointCoupling(name string) (CouplingCheckpoint, error) {
	cs := w.findCoupling(name)
	if cs == nil {
		return CouplingCheckpoint{}, fmt.Errorf("core: unknown coupling %q", name)
	}
	return w.couplingCkpt(cs, w.jobs.Ascending()), nil
}

// RestoreState rehydrates a Workflow built with the same coupling specs
// from a checkpoint document. The specs carry the selectors: they are
// campaign state that outlives the manager, so nothing restores them.
// In-flight work returns to the ready queue; running jobs at crash time
// are re-run.
func (w *Workflow) RestoreState(data []byte) error {
	cks, err := DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	for _, c := range cks {
		if err := w.RestoreCoupling(c); err != nil {
			return err
		}
	}
	return nil
}

// restoreCouplingState rehydrates one coupling from its checkpoint record.
// Resumed simulations go to the front of the ready queue: they re-enter the
// machine first, without a new setup. Interrupted setups re-run (their
// selection already happened).
func restoreCouplingState(cs *couplingState, c CouplingCheckpoint) {
	cs.ready = sched.Ring[dynim.Point]{}
	for _, p := range slices.Concat(c.RunningSims, c.Ready) {
		cs.ready.PushBack(p)
	}
	cs.launched = c.Launched - len(c.RunningSims)
	if cs.launched < 0 {
		cs.launched = 0
	}
	cs.completed = c.Completed
	for _, p := range c.InSetup {
		cs.redoSetup.PushBack(p)
	}
}

// RestoreCoupling rehydrates one already-registered coupling from its
// record. It must precede Start; a fleet uses it to route each coupling of
// a campaign checkpoint to the instance that owns it.
func (w *Workflow) RestoreCoupling(c CouplingCheckpoint) error {
	if w.started {
		return errors.New("core: restore must precede Start")
	}
	cs := w.findCoupling(c.Name)
	if cs == nil {
		return fmt.Errorf("core: checkpoint has unknown coupling %q", c.Name)
	}
	restoreCouplingState(cs, c)
	return nil
}

// AdoptCoupling registers a new coupling on a live workflow and rehydrates
// it from ckpt — the takeover path of the distributed WM fleet: a surviving
// instance that wins an expired lease adopts the orphaned coupling and
// resumes its in-flight work. If the workflow is already started the
// coupling's feedback ticker is armed and an immediate poll re-engages its
// resources. The returned stats are the post-restore snapshot the caller's
// conservation assert checks against the pre-crash state.
func (w *Workflow) AdoptCoupling(spec CouplingSpec, ckpt CouplingCheckpoint) (CouplingStats, error) {
	if err := spec.validate(); err != nil {
		return CouplingStats{}, err
	}
	if ckpt.Name != spec.Name {
		return CouplingStats{}, fmt.Errorf("core: checkpoint is for coupling %q, adopting %q", ckpt.Name, spec.Name)
	}
	if w.stopped {
		return CouplingStats{}, errors.New("core: workflow stopped")
	}
	if w.findCoupling(spec.Name) != nil {
		return CouplingStats{}, fmt.Errorf("core: duplicate coupling %q", spec.Name)
	}
	cs := &couplingState{spec: spec}
	w.couplings = append(w.couplings, cs)
	idx := len(w.couplings) - 1
	restoreCouplingState(cs, ckpt)
	st := w.couplingStats(cs)
	if w.started {
		if spec.Feedback != nil {
			w.fbTickers = append(w.fbTickers,
				vclock.NewTicker(w.clk, spec.FeedbackEvery, func(time.Time) {
					w.runFeedback(idx)
				}))
		}
		w.pollCoupling(idx)
	}
	return st, nil
}

// LiveJobIDs returns the IDs of every job the manager is currently
// tracking, in ascending order — the set a fleet crash handler kills when
// this instance dies (static jobs are untracked and survive).
func (w *Workflow) LiveJobIDs() []sched.JobID { return w.jobs.Ascending() }
