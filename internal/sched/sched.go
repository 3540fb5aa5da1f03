package sched

import (
	"errors"
	"fmt"
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
	// RecordTimeline keeps a Placement per start for Timeline. Only the
	// replay's Fig. 6 capture sets it; every other scheduler records
	// nothing.
	RecordTimeline bool
}

// qMsg is one message in Q's inbox: a submission when job is set, else a
// status sweep.
type qMsg struct {
	job  *Job
	cost time.Duration
}

// Scheduler is the Flux-like workload manager. Its Q and R servers are
// callbacks on the clock, so a Scheduler is not safe for concurrent use:
// every method runs on the goroutine that drives the clock (DESIGN.md §6).
type Scheduler struct {
	clk     *vclock.Virtual
	machine *cluster.Machine
	matcher *Matcher
	mode    Mode
	costs   Costs
	tel     *telemetry.Telemetry
	m       metrics

	// jobs is indexed by JobID, which is dense from 1: the record of a
	// pending or running job, nil once the job is terminal (or for ID 0).
	// ended holds a retired job's terminal State, one byte per ID.
	jobs    []*Job
	ended   []uint8
	inbox   Ring[qMsg]
	pending Ring[*Job]
	rQueue  Ring[*Job]
	// inboxSubmits counts the submissions in the inbox, which Counts and
	// the queue-depth gauge report as queued.
	inboxSubmits int
	headBlocked  bool
	rHeadBlocked bool
	running      int
	finished     int
	record       bool
	timeline     []Placement
	onStart      func(*Job)
	onFinish     func(*Job)
	poll         *vclock.Ticker
	closed       bool

	// Q and R each have at most one continuation on the clock (qBusy,
	// rBusy). Its job, placement and outcome wait here, and the
	// continuations are method values bound once by New, so a step
	// allocates nothing.
	qBusy, rBusy              bool
	qJob, rJob                *Job
	qAlloc, rAlloc            cluster.Alloc
	qOK, rOK                  bool
	ingested, forwarded       func()
	syncMatched, asyncMatched func()
}

// metrics are the scheduler's metric handles, resolved at their first events.
type metrics struct {
	submitted, matches, matchVisits, matchBlocked, started, autocompleteErrors,
	completed, failed, canceled, hung, nodeCrashes, crashKillErrors telemetry.Lazy[telemetry.Counter]
	matchMs, queueWaitMs                            telemetry.Lazy[telemetry.Histogram]
	queueDepth, running, gpuOccupancy, cpuOccupancy telemetry.Lazy[telemetry.Gauge]
}

// New builds a scheduler over the machine described in cfg.
func New(clk *vclock.Virtual, cfg Config) (*Scheduler, error) {
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
		clk:     clk,
		machine: cfg.Machine,
		matcher: NewMatcher(cfg.Machine, cfg.Policy),
		mode:    cfg.Mode,
		costs:   cfg.Costs,
		tel:     tel,
		jobs:    []*Job{nil},
		ended:   []uint8{0},
		record:  cfg.RecordTimeline,
	}
	s.ingested, s.forwarded = s.ingest, s.forward
	s.syncMatched, s.asyncMatched = s.syncMatchDone, s.asyncMatchDone
	if cfg.StatusPollEvery > 0 {
		s.poll = vclock.NewTicker(clk, cfg.StatusPollEvery, func(time.Time) {
			n := s.pending.Len() + s.rQueue.Len() + s.running
			if n > 0 {
				s.inbox.PushBack(qMsg{cost: time.Duration(n) * s.costs.StatusMsg})
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
	job := &Job{ID: JobID(len(s.jobs)), Req: req, State: Pending, SubmitTime: s.clk.Now()}
	s.jobs = push(s.jobs, job)
	s.ended = push(s.ended, 0)
	s.inbox.PushBack(qMsg{job: job, cost: s.costs.SubmitMsg})
	s.inboxSubmits++
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
	if s.tel.Tracing() { // boxing the arguments costs allocations
		s.tel.RecordSpan("sched", "match", s.clk.Now(), cost,
			"job", int64(job.ID), "visits", visits, "placed", placed)
	}
	s.m.matches.Get(s.tel, "sched.matches_total").Inc()
	s.m.matchVisits.Get(s.tel, "sched.match_visits_total").Add(visits)
	if !placed {
		s.m.matchBlocked.Get(s.tel, "sched.match_blocked_total").Inc()
	}
	s.m.matchMs.Get(s.tel, "sched.match_ms").Observe(float64(cost) / float64(time.Millisecond))
}

// updateGauges refreshes queue-depth and occupancy gauges.
func (s *Scheduler) updateGauges() {
	q := s.inboxSubmits + s.pending.Len() + s.rQueue.Len()
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
	if s.inbox.Len() > 0 {
		msg := s.inbox.PopFront()
		if msg.job != nil {
			s.inboxSubmits--
		}
		s.qBusy = true
		s.qJob = msg.job
		s.clk.After(msg.cost, s.ingested)
		return
	}
	if s.pending.Len() == 0 {
		return
	}
	if s.mode == Sync {
		s.syncMatchHead()
		return
	}
	// Async: forward the head to R's queue and keep going.
	s.qBusy = true
	s.qJob = s.pending.PopFront()
	s.clk.After(s.costs.SubmitMsg, s.forwarded)
}

// ingest completes Q's handling of one inbox message: a submission's job
// joins the pending FIFO unless it was canceled meanwhile.
func (s *Scheduler) ingest() {
	if job := s.qJob; job != nil && job.State == Pending {
		s.pending.PushBack(job)
	}
	s.qJob = nil
	s.qBusy = false
	s.kickQ()
}

// forward completes Q's forwarding of the pending head to R's queue.
func (s *Scheduler) forward() {
	if job := s.qJob; job.State == Pending {
		s.rQueue.PushBack(job)
	}
	s.qJob = nil
	s.qBusy = false
	s.kickR()
	s.kickQ()
}

// syncMatchHead performs one synchronous match with Q blocked for its
// duration.
func (s *Scheduler) syncMatchHead() {
	if s.headBlocked {
		return // FCFS without backfilling: a blocked head stalls the queue
	}
	job := s.pending.Front()
	s.qBusy = true
	s.qJob = job
	job.matching = true
	var visits int64
	s.qAlloc, visits, s.qOK = s.matcher.Match(job.Req)
	cost := time.Duration(visits) * s.costs.VertexVisit
	s.noteMatch(job, visits, cost, s.qOK)
	s.clk.After(cost, s.syncMatched)
}

// syncMatchDone lands the synchronous match: the head starts, or blocks the
// queue until resources free up.
func (s *Scheduler) syncMatchDone() {
	job, alloc, ok := s.qJob, s.qAlloc, s.qOK
	s.qJob, s.qAlloc = nil, cluster.Alloc{}
	job.matching = false
	if ok {
		s.pending.PopFront()
		s.start(job, alloc)
	} else {
		s.headBlocked = true
	}
	s.qBusy = false
	s.kickQ()
	if ok && s.onStart != nil {
		s.onStart(job)
	}
}

// kickR advances the matcher server (async mode).
func (s *Scheduler) kickR() {
	if s.rBusy || s.rHeadBlocked || s.rQueue.Len() == 0 || s.closed {
		return
	}
	job := s.rQueue.Front()
	s.rBusy = true
	s.rJob = job
	job.matching = true
	var visits int64
	s.rAlloc, visits, s.rOK = s.matcher.Match(job.Req)
	cost := time.Duration(visits) * s.costs.VertexVisit
	s.noteMatch(job, visits, cost, s.rOK)
	s.clk.After(cost, s.asyncMatched)
}

// asyncMatchDone lands R's match: the head of R's queue starts, or blocks
// R until resources free up.
func (s *Scheduler) asyncMatchDone() {
	job, alloc, ok := s.rJob, s.rAlloc, s.rOK
	s.rJob, s.rAlloc = nil, cluster.Alloc{}
	job.matching = false
	if ok {
		s.rQueue.PopFront()
		s.start(job, alloc)
	} else {
		s.rHeadBlocked = true
	}
	s.rBusy = false
	s.kickR()
	if ok && s.onStart != nil {
		s.onStart(job)
	}
}

// start transitions a matched job to Running.
func (s *Scheduler) start(job *Job, alloc cluster.Alloc) {
	job.State = Running
	job.StartTime = s.clk.Now()
	job.Alloc = alloc
	s.running++
	if s.record {
		s.timeline = append(s.timeline, Placement{Time: job.StartTime, Job: job.ID})
	}
	s.m.started.Get(s.tel, "sched.started_total").Inc()
	s.m.queueWaitMs.Get(s.tel, "sched.queue_wait_ms").
		Observe(float64(job.StartTime.Sub(job.SubmitTime)) / float64(time.Millisecond))
	s.updateGauges()
	if job.Req.Duration > 0 {
		id := job.ID
		job.autoDone = s.clk.After(job.Req.Duration, func() {
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
	if id <= 0 || int(id) >= len(s.jobs) {
		return fmt.Errorf("sched: unknown job %d", id)
	}
	job := s.jobs[id]
	if job == nil {
		if ended := State(s.ended[id]); ended == Canceled {
			return fmt.Errorf("sched: job %d is %v, not running", id, ended)
		}
		return fmt.Errorf("sched: job %d: %w", id, ErrAlreadyTerminal)
	}
	if job.State != Running {
		return fmt.Errorf("sched: job %d is %v, not running", id, job.State)
	}
	if job.autoDone != 0 {
		s.clk.Cancel(job.autoDone)
		job.autoDone = 0
	}
	s.retire(job, st)
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

// retire moves job to terminal state st: the table forgets the record and
// keeps the state byte.
func (s *Scheduler) retire(job *Job, st State) {
	job.State = st
	job.EndTime = s.clk.Now()
	s.jobs[job.ID] = nil
	s.ended[job.ID] = uint8(st)
}

// live returns the record of a pending or running job, or nil.
func (s *Scheduler) live(id JobID) *Job {
	if id <= 0 || int(id) >= len(s.jobs) {
		return nil
	}
	return s.jobs[id]
}

// Cancel removes a job that has not started. Jobs currently being matched
// or already running cannot be canceled (use Fail for running jobs).
func (s *Scheduler) Cancel(id JobID) bool {
	job := s.live(id)
	if job == nil || job.State != Pending || job.matching {
		return false
	}
	s.retire(job, Canceled)
	isJob := func(j *Job) bool { return j.ID == id }
	if !s.pending.Remove(isJob) {
		s.rQueue.Remove(isJob)
	}
	s.m.canceled.Get(s.tel, "sched.canceled_total").Inc()
	s.updateGauges()
	if s.onFinish != nil {
		s.onFinish(job)
	}
	return true
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
	job := s.live(id)
	if job == nil || job.State != Running {
		return false
	}
	if job.autoDone != 0 {
		s.clk.Cancel(job.autoDone)
		job.autoDone = 0
	}
	s.m.hung.Get(s.tel, "sched.hung_total").Inc()
	return true
}

// Crash simulates a node failure: the node is drained first (so resources
// freed by its dying jobs are not immediately re-placed onto it), then
// every job running on the node is failed — the workflow's trackers
// resubmit those under their attempt budgets (§4.4). Returns the killed job
// IDs in ascending order. Revive brings the node back.
func (s *Scheduler) Crash(node int) []JobID {
	var victims []JobID
	for _, job := range s.jobs { // ascending IDs
		if job == nil || job.State != Running {
			continue
		}
		for _, part := range job.Alloc.Parts {
			if part.Node == node {
				victims = append(victims, job.ID)
				break
			}
		}
	}
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
	var ids []JobID
	for _, job := range s.jobs { // ascending IDs
		if job != nil {
			ids = append(ids, job.ID)
		}
	}
	return ids
}

// Job returns a copy of a pending or running job's record. A terminal job's
// record is gone (OnFinish received it whole): Job reports only its ID and
// State. An ID never issued reports false.
func (s *Scheduler) Job(id JobID) (Job, bool) {
	if id <= 0 || int(id) >= len(s.jobs) {
		return Job{}, false
	}
	if j := s.jobs[id]; j != nil {
		return *j, true
	}
	return Job{ID: id, State: State(s.ended[id])}, true
}

// Counts returns (queued, running, finished) job counts. Queued includes
// jobs in Q's inbox, the pending FIFO, and R's queue.
func (s *Scheduler) Counts() (queued, running, finished int) {
	return s.inboxSubmits + s.pending.Len() + s.rQueue.Len(), s.running, s.finished
}

// Timeline hands over the placement history (Fig. 6 series) of a scheduler
// built with Config.RecordTimeline, nil for any other, and forgets it, so a
// closed scheduler that late events still reach does not pin it: a later
// call returns only the placements made since.
func (s *Scheduler) Timeline() []Placement {
	tl := s.timeline
	s.timeline = nil
	return tl
}

// MatcherVisits returns R's cumulative vertex-visit count.
func (s *Scheduler) MatcherVisits() int64 { return s.matcher.Visits() }

// Close stops the status-poll ticker and rejects further submissions.
func (s *Scheduler) Close() {
	s.closed = true
	if s.poll != nil {
		s.poll.Stop()
	}
}
