package campaign

import (
	"errors"
	"fmt"
	"math/rand"

	"mummi/internal/core"
	"mummi/internal/dynim"
	"mummi/internal/faults"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/wmfleet"
)

// coordinator is what an allocation's rig (begin, end) needs from the layer
// that coordinates its couplings. There are two: soloWM, one manager that
// a wm-crash restarts from its checkpoint, and fleetWM, N managers sharing
// coupling ownership through store leases, where a wm-crash kills one
// instance and a survivor adopts its couplings. Everything else about an
// allocation is the same code for both.
type coordinator interface {
	// AddCandidate and Stats serve the rig's observers: Task-1 snapshot
	// ingest and the heartbeat.
	AddCandidate(coupling string, p dynim.Point) error
	Stats() []core.CouplingStats
	// Restore loads the previous allocation's checkpoint; it precedes Start.
	Restore(ckpt []byte) error
	Start() error
	// Crash handles one injected wm-crash.
	Crash(r faults.Rule, rng *rand.Rand)
	// Stop halts the managers and flushes their conductors: queued
	// submissions fail back into WM state, so Checkpoint holds them.
	Stop()
	// Checkpoint returns the coordinator's state in the single-WM format.
	Checkpoint() ([]byte, error)
	// spanArgs extends the allocation span's arguments.
	spanArgs() []any
	// merge folds the coordinator's own tallies into the result.
	merge(res *Result)
}

// newCoordinator builds the allocation's coordinator over scheduler s:
// a fleet when Config.WMInstances > 1, a single manager otherwise.
func (c *Campaign) newCoordinator(s *sched.Scheduler, couplings []core.CouplingSpec,
	staticJobs []sched.Request) (coordinator, error) {
	var wdGrace float64
	if c.eng != nil {
		// Chaos replays arm the hung-job watchdog: injected job-hang
		// faults are unkillable any other way.
		wdGrace = chaosWatchdogGrace
	}
	seed := c.cfg.Seed + int64(c.res.RunsDone)
	if c.cfg.WMInstances > 1 {
		fl, err := wmfleet.New(wmfleet.Config{
			Clock:           c.clk,
			Backend:         maestro.FluxBackend{S: s},
			Store:           c.fleetStore,
			Telemetry:       c.tel,
			Instances:       c.cfg.WMInstances,
			Couplings:       couplings,
			StaticJobs:      staticJobs,
			PollEvery:       c.cfg.PollEvery,
			Seed:            seed,
			SubmitPerMinute: c.cfg.SubmitPerMinute,
			WatchdogGrace:   wdGrace,
			// Per-allocation namespaces: an adopter's still-live lease from
			// one allocation must never block the next allocation's initial
			// owner from acquiring.
			Namespace: fmt.Sprintf("wmfleet-r%03d", c.res.RunsDone),
			OnEvent:   c.noteFault,
			OnAnomaly: func(msg string) {
				c.res.Anomalies = append(c.res.Anomalies, msg)
			},
		})
		if err != nil {
			return nil, err
		}
		return &fleetWM{Fleet: fl, c: c, s: s}, nil
	}
	a := &soloWM{c: c, s: s, base: core.Config{
		Clock:         c.clk,
		PollEvery:     c.cfg.PollEvery,
		Telemetry:     c.tel,
		WatchdogGrace: wdGrace,
		StaticJobs:    staticJobs,
		Couplings:     couplings,
	}}
	if err := a.build(seed); err != nil {
		return nil, err
	}
	return a, nil
}

// soloWM coordinates an allocation with one workflow manager and its
// conductor. The embedded manager serves AddCandidate, Stats, Start and
// Checkpoint; Crash replaces it, so the rig's closures (snapshots, heartbeat)
// drive the rebuilt manager afterwards.
type soloWM struct {
	*core.Workflow
	cond *maestro.Conductor
	c    *Campaign
	s    *sched.Scheduler
	base core.Config // the manager's shape; build adds conductor and seed
}

// build replaces the manager and its conductor with fresh ones. The
// selectors in the coupling specs are Campaign state and outlive the
// manager: a rebuilt manager keeps the live selectors, and no checkpoint
// holds them (docs/RESILIENCE.md "Checkpoint record").
func (a *soloWM) build(seed int64) error {
	cond, err := maestro.NewConductor(a.c.clk, maestro.FluxBackend{S: a.s}, a.c.cfg.SubmitPerMinute)
	if err != nil {
		return err
	}
	cfg := a.base
	cfg.Conductor, cfg.Seed = cond, seed
	wm, err := core.New(cfg)
	if err != nil {
		return err
	}
	a.Workflow, a.cond = wm, cond
	return nil
}

func (a *soloWM) Restore(ckpt []byte) error { return a.RestoreState(ckpt) }

func (a *soloWM) Stop() {
	a.Workflow.Stop()
	a.cond.Close()
}

func (a *soloWM) spanArgs() []any { return nil }

func (a *soloWM) merge(*Result) {}

// Crash models an injected WM crash inside an allocation (§4.4: the WM "can
// be restored completely after any such crash"): stop the dead manager,
// flush its conductor, checkpoint its state, cold-kill the allocation's job
// set (every configuration is in the checkpoint; running simulations resume
// from banked progress), rebuild the WM, restore, and restart. The
// conservation check asserts no selection was lost across the crash.
func (a *soloWM) Crash(faults.Rule, *rand.Rand) {
	c := a.c
	before := a.Stats()
	a.Stop()
	ck, err := a.Checkpoint()
	if err != nil {
		c.noteFault(fmt.Sprintf("wm-crash checkpoint failed: %v", err))
		return
	}
	orphans := c.killJobs(a.s, a.s.LiveJobs())
	c.res.WMRestarts++
	// A restarted manager is a new process: distinct WM seed, same replay
	// determinism (the offset is a pure function of campaign state).
	if err := a.build(c.cfg.Seed + int64(c.res.RunsDone) + 7919*int64(c.res.WMRestarts)); err != nil {
		c.noteFault(fmt.Sprintf("wm-crash rebuild failed: %v", err))
		return
	}
	if err := a.RestoreState(ck); err != nil {
		c.noteFault(fmt.Sprintf("wm-crash restore failed: %v", err))
		return
	}
	// No selection may be lost: everything ready, running, or in setup
	// before the crash must be ready or in setup after the restore.
	after := a.Stats()
	for i := range before {
		if i >= len(after) {
			break
		}
		want := before[i].Ready + before[i].Running + before[i].InSetup
		got := after[i].Ready + after[i].InSetup
		if got != want {
			c.res.Anomalies = append(c.res.Anomalies,
				fmt.Sprintf("wm-crash lost selections in %s: %d before, %d after",
					before[i].Name, want, got))
		}
	}
	if err := a.Start(); err != nil {
		c.noteFault(fmt.Sprintf("wm-crash restart failed: %v", err))
		return
	}
	msg := fmt.Sprintf("wm-crash restart=%d orphans=%d", c.res.WMRestarts, orphans)
	c.noteFault(msg)
	c.eng.Note(msg)
}

// fleetWM coordinates an allocation with a distributed WM fleet
// (internal/wmfleet), which serves every coordinator method but the three
// below. The fleet routes each candidate to whichever instance owns the
// coupling at arrival time; while ownership is in flight the shared
// selectors hold the candidates.
type fleetWM struct {
	*wmfleet.Fleet
	c *Campaign
	s *sched.Scheduler
}

func (a *fleetWM) spanArgs() []any { return []any{"wm_instances", a.c.cfg.WMInstances} }

func (a *fleetWM) merge(res *Result) {
	acc := a.Accounting()
	res.WMCrashes += acc.Crashes
	res.WMAdoptions += acc.Adoptions
	res.LeaseExpirations += acc.LeaseExpirations
}

// Crash handles one injected wm-crash: pick the victim (the rule's pinned
// instance, or a random live one when the rule leaves it open), crash it
// through the fleet — which flushes its couplings' checkpoints through the
// store and leaves its leases to expire — then bank and kill the dead
// instance's tracked jobs. Every selected configuration is in the flushed
// checkpoints, so the adopting instance resubmits them with no selection
// lost; static jobs (the continuum) are untracked and survive. The crash is
// refused when it would kill the last live instance.
func (a *fleetWM) Crash(r faults.Rule, rng *rand.Rand) {
	c := a.c
	live := a.LiveInstances()
	if len(live) <= 1 {
		c.noteFault("wm-crash skipped: one live instance left")
		return
	}
	var victim int
	if r.Instance > 0 {
		victim = r.Instance - 1
		if !a.Alive(victim) {
			c.noteFault(fmt.Sprintf("wm-crash skipped: instance %d not live", r.Instance))
			return
		}
	} else {
		victim = live[rng.Intn(len(live))]
	}
	info, err := a.Fleet.Crash(victim)
	if err != nil {
		c.noteFault(fmt.Sprintf("wm-crash failed: %v", err))
		return
	}
	orphans := c.killJobs(a.s, info.Jobs)
	msg := fmt.Sprintf("wm-crash instance=%d killed=%d couplings=%d orphans=%d",
		victim+1, len(info.Jobs), len(info.Couplings), orphans)
	c.noteFault(msg)
	c.eng.Note(msg)
}

// killJobs clears a crashed manager's job set: bank each simulation's
// progress, then fail the job if it runs or cancel it if it waits. It
// returns how many could be neither (mid-match: they will run and finish
// unobserved).
func (c *Campaign) killJobs(s *sched.Scheduler, ids []sched.JobID) (orphans int) {
	for _, id := range ids {
		c.bankActive(id)
		delete(c.active, id)
		if job, ok := s.Job(id); ok && job.State == sched.Running {
			if err := s.Fail(id); err != nil && !errors.Is(err, sched.ErrAlreadyTerminal) {
				c.res.Anomalies = append(c.res.Anomalies,
					fmt.Sprintf("wm-crash kill job %d: %v", id, err))
			}
		} else if !s.Cancel(id) {
			orphans++
		}
	}
	return orphans
}
