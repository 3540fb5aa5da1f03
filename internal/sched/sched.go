package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// ErrAlreadyTerminal is returned by Complete/Fail when the job has already
// reached a terminal state — typically the benign race between the modeled
// auto-completion timer and a manual Complete/Fail (or a node crash).
// Callers that tolerate the race match it with errors.Is; anything else
// escaping finish is a real error.
var ErrAlreadyTerminal = errors.New("sched: job already terminal")

// Mode selects how the queue manager (Q) and matcher (R) communicate.
type Mode int

// Q↔R communication modes.
const (
	// Sync models the Flux version used in the campaign: Q and R
	// "communicate synchronously" — Q is blocked while R matches, and
	// message handling (submissions, status traffic) has priority over
	// forwarding jobs to R. At 4000-node scale this is the Fig. 6
	// bottleneck: scheduling "happened in large chunks followed by large
	// periods of inactivity".
	Sync Mode = iota
	// Async is the paper's fix: Q ingestion and R matching overlap in
	// virtual time — Q forwards each job to R's queue and keeps ingesting
	// while R's match is in flight.
	Async
)

// String names the mode.
func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// Costs parameterizes the time model of scheduler work. Defaults are tuned
// so that Summit-scale replays land where the paper's Fig. 6 does: an
// exhaustive match over a 4000-node graph (~212k vertices) costs ~2 s, so a
// 1000-node machine loads in about an hour at ~100 jobs/min while the
// 4000-node run bogs down.
type Costs struct {
	// SubmitMsg is Q's cost to ingest one submission (or forward one job).
	SubmitMsg time.Duration
	// StatusMsg is Q's cost to answer one job-status query; the workflow
	// polls every tracked job every poll interval, so this scales the
	// Q-side load that starves forwarding in sync mode.
	StatusMsg time.Duration
	// VertexVisit is R's cost per resource-graph vertex visited.
	VertexVisit time.Duration
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		SubmitMsg:   5 * time.Millisecond,
		StatusMsg:   10 * time.Millisecond,
		VertexVisit: 10 * time.Microsecond,
	}
}

// Config assembles a scheduler.
type Config struct {
	Machine *cluster.Machine
	Policy  Policy
	Mode    Mode
	Costs   Costs
	// StatusPollEvery, when positive, models the workflow's periodic
	// status sweep over all tracked jobs as Q-priority message load.
	StatusPollEvery time.Duration
	// Telemetry receives match spans and scheduler metrics (nil =
	// discarded). Match spans carry the modeled cost as their duration, so
	// a trace of a virtual-clock replay shows R's duty cycle exactly.
	Telemetry *telemetry.Telemetry
}

type qMsg struct {
	kind string // "submit" | "status"
	job  *Job
	cost time.Duration
}

// Scheduler is the Flux-like workload manager. Its Q and R servers are
// callbacks on the clock, so a Scheduler is not safe for concurrent use:
// every method runs on the goroutine that drives the clock (DESIGN.md §6).
type Scheduler struct {
	clk     vclock.Clock
	machine *cluster.Machine
	matcher *Matcher
	mode    Mode
	costs   Costs
	tel     *telemetry.Telemetry
	m       metrics

	nextID       JobID
	jobs         map[JobID]*Job
	inbox        []qMsg
	pending      []*Job
	rQueue       []*Job
	qBusy        bool
	rBusy        bool
	headBlocked  bool
	rHeadBlocked bool
	matching     map[JobID]bool
	autoDone     map[JobID]vclock.EventID
	hung         map[JobID]bool
	running      int
	finished     int
	timeline     []Placement
	onStart      func(*Job)
	onFinish     func(*Job)
	poll         *vclock.Ticker
	closed       bool
}

// metrics are the scheduler's metric handles, resolved at their first events.
type metrics struct {
	submitted, matches, matchVisits, matchBlocked, started, autocompleteErrors,
	completed, failed, canceled, hung, nodeCrashes, crashKillErrors telemetry.Lazy[telemetry.Counter]
	matchMs, queueWaitMs                            telemetry.Lazy[telemetry.Histogram]
	queueDepth, running, gpuOccupancy, cpuOccupancy telemetry.Lazy[telemetry.Gauge]
}

// New builds a scheduler over the machine described in cfg.
func New(clk vclock.Clock, cfg Config) (*Scheduler, error) {
	if cfg.Machine == nil {
		return nil, errors.New("sched: nil machine")
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Nop()
	}
	s := &Scheduler{
		clk:      clk,
		machine:  cfg.Machine,
		matcher:  NewMatcher(cfg.Machine, cfg.Policy),
		mode:     cfg.Mode,
		costs:    cfg.Costs,
		tel:      tel,
		jobs:     make(map[JobID]*Job),
		matching: make(map[JobID]bool),
		autoDone: make(map[JobID]vclock.EventID),
		hung:     make(map[JobID]bool),
	}
	if cfg.StatusPollEvery > 0 {
		s.poll = vclock.NewTicker(clk, cfg.StatusPollEvery, func(time.Time) {
			n := len(s.pending) + len(s.rQueue) + s.running
			if n > 0 {
				s.inbox = append(s.inbox, qMsg{kind: "status",
					cost: time.Duration(n) * s.costs.StatusMsg})
				s.kickQ()
			}
		})
	}
	return s, nil
}

// OnStart registers a callback invoked when a job begins running, after the
// scheduler's state is updated; it may call back into the scheduler.
func (s *Scheduler) OnStart(fn func(*Job)) { s.onStart = fn }

// OnFinish registers a callback invoked when a job reaches a terminal state,
// after the scheduler's state is updated; it may call back into the
// scheduler.
func (s *Scheduler) OnFinish(fn func(*Job)) { s.onFinish = fn }

// Submit enqueues a job. Ingestion is modeled through Q: the job becomes
// visible to matching only after Q processes the submission message.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	req = req.normalize()
	if err := req.validate(s.machine.Topology()); err != nil {
		return nil, err
	}
	if s.closed {
		return nil, errors.New("sched: scheduler closed")
	}
	s.nextID++
	job := &Job{ID: s.nextID, Req: req, State: Pending, SubmitTime: s.clk.Now()}
	s.jobs[job.ID] = job
	s.inbox = append(s.inbox, qMsg{kind: "submit", job: job, cost: s.costs.SubmitMsg})
	s.m.submitted.Get(s.tel, "sched.submitted_total").Inc()
	s.updateGauges()
	s.kickQ()
	return job, nil
}

// noteMatch records one matcher invocation. The span's duration is
// the modeled match cost (visits × VertexVisit), charged from the moment R
// begins the match — under a virtual clock this makes the trace an exact
// picture of R's duty cycle.
func (s *Scheduler) noteMatch(job *Job, visits int64, cost time.Duration, placed bool) {
	s.tel.RecordSpan("sched", "match", s.clk.Now(), cost,
		"job", int64(job.ID), "visits", visits, "placed", placed)
	s.m.matches.Get(s.tel, "sched.matches_total").Inc()
	s.m.matchVisits.Get(s.tel, "sched.match_visits_total").Add(visits)
	if !placed {
		s.m.matchBlocked.Get(s.tel, "sched.match_blocked_total").Inc()
	}
	s.m.matchMs.Get(s.tel, "sched.match_ms").Observe(float64(cost) / float64(time.Millisecond))
}

// updateGauges refreshes queue-depth and occupancy gauges.
func (s *Scheduler) updateGauges() {
	q := len(s.pending) + len(s.rQueue)
	for _, m := range s.inbox {
		if m.kind == "submit" {
			q++
		}
	}
	s.m.queueDepth.Get(s.tel, "sched.queue_depth").Set(float64(q))
	s.m.running.Get(s.tel, "sched.running").Set(float64(s.running))
	s.m.gpuOccupancy.Get(s.tel, "sched.gpu_occupancy_pct").Set(s.machine.GPUOccupancy() * 100)
	s.m.cpuOccupancy.Get(s.tel, "sched.cpu_occupancy_pct").Set(s.machine.CPUOccupancy() * 100)
}

// kickQ advances the queue manager.
func (s *Scheduler) kickQ() {
	if s.qBusy || s.closed {
		return
	}
	// Message handling has priority over forwarding/matching.
	if len(s.inbox) > 0 {
		msg := s.inbox[0]
		s.inbox = s.inbox[1:]
		s.qBusy = true
		s.clk.After(msg.cost, func() {
			if msg.kind == "submit" && msg.job.State == Pending {
				s.pending = append(s.pending, msg.job)
			}
			s.qBusy = false
			s.kickQ()
		})
		return
	}
	if len(s.pending) == 0 {
		return
	}
	if s.mode == Sync {
		s.syncMatchHead()
		return
	}
	// Async: forward the head to R's queue and keep going.
	job := s.pending[0]
	s.pending = s.pending[1:]
	s.qBusy = true
	s.clk.After(s.costs.SubmitMsg, func() {
		if job.State == Pending {
			s.rQueue = append(s.rQueue, job)
		}
		s.qBusy = false
		s.kickR()
		s.kickQ()
	})
}

// syncMatchHead performs one synchronous match with Q blocked for its
// duration.
func (s *Scheduler) syncMatchHead() {
	if s.headBlocked {
		return // FCFS without backfilling: a blocked head stalls the queue
	}
	job := s.pending[0]
	s.qBusy = true
	s.matching[job.ID] = true
	alloc, visits, ok := s.matcher.Match(job.Req)
	cost := time.Duration(visits) * s.costs.VertexVisit
	s.noteMatch(job, visits, cost, ok)
	s.clk.After(cost, func() {
		delete(s.matching, job.ID)
		if ok {
			s.pending = s.pending[1:]
			s.start(job, alloc)
		} else {
			s.headBlocked = true
		}
		s.qBusy = false
		s.kickQ()
		if ok && s.onStart != nil {
			s.onStart(job)
		}
	})
}

// kickR advances the matcher server (async mode).
func (s *Scheduler) kickR() {
	if s.rBusy || s.rHeadBlocked || len(s.rQueue) == 0 || s.closed {
		return
	}
	job := s.rQueue[0]
	s.rBusy = true
	s.matching[job.ID] = true
	alloc, visits, ok := s.matcher.Match(job.Req)
	cost := time.Duration(visits) * s.costs.VertexVisit
	s.noteMatch(job, visits, cost, ok)
	s.clk.After(cost, func() {
		delete(s.matching, job.ID)
		if ok {
			s.rQueue = s.rQueue[1:]
			s.start(job, alloc)
		} else {
			s.rHeadBlocked = true
		}
		s.rBusy = false
		s.kickR()
		if ok && s.onStart != nil {
			s.onStart(job)
		}
	})
}

// start transitions a matched job to Running.
func (s *Scheduler) start(job *Job, alloc cluster.Alloc) {
	job.State = Running
	job.StartTime = s.clk.Now()
	job.Alloc = alloc
	s.running++
	s.timeline = append(s.timeline, Placement{Time: job.StartTime, Job: job.ID})
	s.m.started.Get(s.tel, "sched.started_total").Inc()
	s.m.queueWaitMs.Get(s.tel, "sched.queue_wait_ms").
		Observe(float64(job.StartTime.Sub(job.SubmitTime)) / float64(time.Millisecond))
	s.updateGauges()
	if job.Req.Duration > 0 {
		id := job.ID
		s.autoDone[id] = s.clk.After(job.Req.Duration, func() {
			// Auto-completion may race a manual Complete/Fail; that race is
			// the one benign outcome, anything else is a real bug.
			if err := s.finish(id, Completed); err != nil && !errors.Is(err, ErrAlreadyTerminal) {
				s.m.autocompleteErrors.Get(s.tel, "sched.autocomplete_errors_total").Inc()
			}
		})
	}
}

// Complete marks a running job successfully finished, releasing resources.
func (s *Scheduler) Complete(id JobID) error { return s.finish(id, Completed) }

// Fail marks a running job failed, releasing resources. The workflow's
// trackers resubmit failed jobs (§4.4 Task 3).
func (s *Scheduler) Fail(id JobID) error { return s.finish(id, Failed) }

func (s *Scheduler) finish(id JobID, st State) error {
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("sched: unknown job %d", id)
	}
	if job.State != Running {
		if job.State == Completed || job.State == Failed {
			return fmt.Errorf("sched: job %d: %w", id, ErrAlreadyTerminal)
		}
		return fmt.Errorf("sched: job %d is %v, not running", id, job.State)
	}
	if ev, ok := s.autoDone[id]; ok {
		s.clk.Cancel(ev)
		delete(s.autoDone, id)
	}
	delete(s.hung, id)
	job.State = st
	job.EndTime = s.clk.Now()
	s.running--
	s.finished++
	s.machine.Release(job.Alloc)
	s.matcher.NoteRelease(job.Alloc)
	if st == Completed {
		s.m.completed.Get(s.tel, "sched.completed_total").Inc()
	} else {
		s.m.failed.Get(s.tel, "sched.failed_total").Inc()
	}
	s.updateGauges()
	// Freed resources may unblock queue heads.
	s.headBlocked = false
	s.rHeadBlocked = false
	s.kickQ()
	s.kickR()
	if s.onFinish != nil {
		s.onFinish(job)
	}
	return nil
}

// Cancel removes a job that has not started. Jobs currently being matched
// or already running cannot be canceled (use Fail for running jobs).
func (s *Scheduler) Cancel(id JobID) bool {
	job, ok := s.jobs[id]
	if !ok || job.State != Pending || s.matching[id] {
		return false
	}
	job.State = Canceled
	job.EndTime = s.clk.Now()
	s.pending = removeJob(s.pending, id)
	s.rQueue = removeJob(s.rQueue, id)
	s.m.canceled.Get(s.tel, "sched.canceled_total").Inc()
	s.updateGauges()
	if s.onFinish != nil {
		s.onFinish(job)
	}
	return true
}

func removeJob(js []*Job, id JobID) []*Job {
	for i, j := range js {
		if j.ID == id {
			return append(js[:i], js[i+1:]...)
		}
	}
	return js
}

// Drain marks a node unschedulable (running jobs unaffected).
func (s *Scheduler) Drain(node int) {
	s.machine.Drain(node)
	s.matcher.NoteDrainChange()
}

// Undrain restores a node and wakes the queues.
func (s *Scheduler) Undrain(node int) {
	s.machine.Undrain(node)
	s.matcher.NoteDrainChange()
	s.headBlocked = false
	s.rHeadBlocked = false
	s.kickQ()
	s.kickR()
}

// Hang makes a running job never report completion: its modeled
// auto-completion timer is canceled while its resources stay held, exactly
// what a wedged simulation looks like from the coordinator. Only the
// workflow's hung-job watchdog (or a manual Fail) gets it off the machine.
// Returns false if the job is not currently running.
func (s *Scheduler) Hang(id JobID) bool {
	job, ok := s.jobs[id]
	if !ok || job.State != Running {
		return false
	}
	if ev, armed := s.autoDone[id]; armed {
		s.clk.Cancel(ev)
		delete(s.autoDone, id)
	}
	s.hung[id] = true
	s.m.hung.Get(s.tel, "sched.hung_total").Inc()
	return true
}

// Hung reports whether the job was hung via Hang and has not yet been
// forced to a terminal state.
func (s *Scheduler) Hung(id JobID) bool { return s.hung[id] }

// Crash simulates a node failure: the node is drained first (so resources
// freed by its dying jobs are not immediately re-placed onto it), then
// every job running on the node is failed — the workflow's trackers
// resubmit those under their attempt budgets (§4.4). Returns the killed job
// IDs in ascending order. Revive brings the node back.
func (s *Scheduler) Crash(node int) []JobID {
	var victims []JobID
	for id, job := range s.jobs {
		if job.State != Running {
			continue
		}
		for _, part := range job.Alloc.Parts {
			if part.Node == node {
				victims = append(victims, id)
				break
			}
		}
	}
	// The map walk above is unordered; sorting restores determinism before
	// any side effects happen.
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	s.machine.Drain(node)
	s.matcher.NoteDrainChange()
	s.m.nodeCrashes.Get(s.tel, "sched.node_crashes_total").Inc()
	for _, id := range victims {
		// A victim may already be terminal if an auto-completion fired
		// between collection and the kill; that race is benign.
		if err := s.finish(id, Failed); err != nil && !errors.Is(err, ErrAlreadyTerminal) {
			s.m.crashKillErrors.Get(s.tel, "sched.crash_kill_errors_total").Inc()
		}
	}
	return victims
}

// Revive restores a crashed node to service and wakes the queues; it is
// Undrain under the name the fault-injection path uses.
func (s *Scheduler) Revive(node int) { s.Undrain(node) }

// LiveJobs returns every non-terminal job id (pending or running) in
// ascending order. The campaign's WM crash-restart uses it to clear the
// crashed manager's job set before restoring from checkpoint.
func (s *Scheduler) LiveJobs() []JobID {
	ids := make([]JobID, 0, len(s.jobs))
	for id, job := range s.jobs {
		if job.State == Pending || job.State == Running {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Job returns a copy of the job record.
func (s *Scheduler) Job(id JobID) (Job, bool) {
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Counts returns (queued, running, finished) job counts. Queued includes
// jobs in Q's inbox, the pending FIFO, and R's queue.
func (s *Scheduler) Counts() (queued, running, finished int) {
	q := len(s.pending) + len(s.rQueue)
	for _, m := range s.inbox {
		if m.kind == "submit" {
			q++
		}
	}
	return q, s.running, s.finished
}

// Timeline returns the placement history (Fig. 6 series).
func (s *Scheduler) Timeline() []Placement {
	return append([]Placement(nil), s.timeline...)
}

// MatcherVisits returns R's cumulative vertex-visit count.
func (s *Scheduler) MatcherVisits() int64 { return s.matcher.Visits() }

// Machine exposes the underlying machine (occupancy profiling).
func (s *Scheduler) Machine() *cluster.Machine { return s.machine }

// Close stops the status-poll ticker and rejects further submissions.
func (s *Scheduler) Close() {
	s.closed = true
	if s.poll != nil {
		s.poll.Stop()
	}
}
