// Package maestro is mummi-go's analogue of the Maestro workflow conductor
// (§4.3): "a consistent API to schedule and monitor jobs" that absorbs "the
// changes and peculiarities of different job schedulers", keeping the
// workflow manager agnostic to the scheduler underneath.
//
// The Conductor adds the submission throttle the paper describes ("for most
// parts of this campaign, we specifically throttled the rate of submission
// to prevent overloading the job scheduler", ~100 jobs/min): submissions
// queue locally and drain to the backend at a bounded rate.
package maestro

import (
	"errors"
	"time"

	"mummi/internal/sched"
	"mummi/internal/vclock"
)

// Backend abstracts a job scheduler. The Flux-like sched.Scheduler is one
// backend; tests provide fakes, and other schedulers (a SLURM/LSF model)
// can slot in without touching the workflow.
type Backend interface {
	Submit(req sched.Request) (sched.JobID, error)
	Cancel(id sched.JobID) bool
	// Fail forces a running job to the failed state (watchdog kills, crash
	// handling). Failing an already-terminal job returns an error matching
	// sched.ErrAlreadyTerminal.
	Fail(id sched.JobID) error
	// OnFinish registers a terminal-state callback (completed/failed/
	// canceled).
	OnFinish(fn func(id sched.JobID, state sched.State))
	// OnStart registers a start callback.
	OnStart(fn func(id sched.JobID))
}

// FluxBackend adapts sched.Scheduler to the Backend interface.
type FluxBackend struct{ S *sched.Scheduler }

// Submit implements Backend.
func (f FluxBackend) Submit(req sched.Request) (sched.JobID, error) {
	j, err := f.S.Submit(req)
	if err != nil {
		return 0, err
	}
	return j.ID, nil
}

// Cancel implements Backend.
func (f FluxBackend) Cancel(id sched.JobID) bool { return f.S.Cancel(id) }

// Fail implements Backend.
func (f FluxBackend) Fail(id sched.JobID) error { return f.S.Fail(id) }

// OnFinish implements Backend.
func (f FluxBackend) OnFinish(fn func(sched.JobID, sched.State)) {
	f.S.OnFinish(func(j *sched.Job) { fn(j.ID, j.State) })
}

// OnStart implements Backend.
func (f FluxBackend) OnStart(fn func(sched.JobID)) {
	f.S.OnStart(func(j *sched.Job) { fn(j.ID) })
}

// Conductor queues submissions and drains them to the backend at a bounded
// rate. Its drain loop is a callback on the clock, so a Conductor is not
// safe for concurrent use: every method runs on the goroutine that drives
// the clock (DESIGN.md §6).
type Conductor struct {
	backend Backend
	clk     *vclock.Virtual
	period  time.Duration // min spacing between submissions

	queue  sched.Ring[pendingSub]
	timer  vclock.EventID
	armed  bool
	closed bool
	// ticked is tick bound once, so re-arming allocates nothing.
	ticked func()
}

type pendingSub struct {
	req   sched.Request
	onSub func(sched.JobID, error)
}

// NewConductor wraps a backend with a rate limit of jobsPerMinute
// (0 disables throttling).
func NewConductor(clk *vclock.Virtual, backend Backend, jobsPerMinute int) (*Conductor, error) {
	if backend == nil {
		return nil, errors.New("maestro: nil backend")
	}
	var period time.Duration
	if jobsPerMinute > 0 {
		period = time.Minute / time.Duration(jobsPerMinute)
	}
	c := &Conductor{backend: backend, clk: clk, period: period}
	c.ticked = c.tick
	return c, nil
}

// Submit enqueues a request; onSub (optional) is invoked with the backend's
// job id once the throttled submission actually happens.
func (c *Conductor) Submit(req sched.Request, onSub func(sched.JobID, error)) error {
	if c.closed {
		return errors.New("maestro: conductor closed")
	}
	c.queue.PushBack(pendingSub{req: req, onSub: onSub})
	if !c.armed {
		c.armed = true
		c.timer = c.clk.After(0, c.ticked)
	}
	return nil
}

// tick submits one queued request and re-arms.
func (c *Conductor) tick() {
	if c.closed || c.queue.Len() == 0 {
		c.armed = false
		return
	}
	p := c.queue.PopFront()
	if c.queue.Len() > 0 {
		c.timer = c.clk.After(c.period, c.ticked)
	} else {
		c.armed = false
	}

	id, err := c.backend.Submit(p.req)
	if p.onSub != nil {
		p.onSub(id, err)
	}
}

// Fail forwards to the backend: it forces a running job to the failed
// state, which drives the same terminal callback as a natural failure.
func (c *Conductor) Fail(id sched.JobID) error { return c.backend.Fail(id) }

// OnFinish forwards to the backend.
func (c *Conductor) OnFinish(fn func(sched.JobID, sched.State)) { c.backend.OnFinish(fn) }

// OnStart forwards to the backend.
func (c *Conductor) OnStart(fn func(sched.JobID)) { c.backend.OnStart(fn) }

// ErrClosed is delivered to the submission callbacks of requests still
// queued when the conductor shuts down (the allocation ended before the
// throttle drained them); callers treat it like any submission failure and
// recover the configuration.
var ErrClosed = errors.New("maestro: conductor closed")

// Close stops the drain loop. Queued submissions are not silently dropped:
// each pending callback is invoked with ErrClosed so the workflow can
// checkpoint those configurations.
func (c *Conductor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	// The ring's array is sized for the allocation's peak backlog; a closed
	// conductor that late completions still reach must not pin it.
	q := c.queue
	c.queue = sched.Ring[pendingSub]{}
	if c.armed {
		c.clk.Cancel(c.timer)
		c.armed = false
	}
	for q.Len() > 0 {
		if p := q.PopFront(); p.onSub != nil {
			p.onSub(0, ErrClosed)
		}
	}
}
