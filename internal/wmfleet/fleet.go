package wmfleet

import (
	"errors"
	"fmt"
	"time"

	"mummi/internal/core"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// Config wires a Fleet. Clock, Backend, Store, and at least one
// coupling are required; the rest default sensibly.
type Config struct {
	// Clock is the campaign's virtual clock; every fleet decision is a
	// function of it.
	Clock vclock.Clock
	// Backend is the shared job-scheduler backend all instances submit
	// through (each instance gets its own throttled conductor on top).
	Backend maestro.Backend
	// Store carries lease and checkpoint traffic. The campaign passes
	// the armored store, so lease operations survive injected transient
	// store faults by retrying inside one virtual instant.
	Store datastore.Store
	// Telemetry receives fleet counters, histograms, and spans (nil =
	// discarded). See docs/OBSERVABILITY.md for the emitted names.
	Telemetry *telemetry.Telemetry
	// Instances is the fleet size N (>= 1). Coupling i is initially
	// owned by instance i mod N; instances owning no coupling start as
	// hot standbys.
	Instances int
	// Couplings is the campaign's coupling set, in canonical order.
	Couplings []core.CouplingSpec
	// StaticJobs are submitted once at Start by instance 0 (the
	// continuum job in the three-scale regime); they are untracked and
	// survive any instance crash.
	StaticJobs []sched.Request
	// PollEvery is each instance's job-scan cadence (core.Config).
	PollEvery time.Duration
	// Seed derives each instance's WM seed deterministically.
	Seed int64
	// SubmitPerMinute is the campaign-wide submission throttle; it is
	// divided across instances (each conductor gets at least 1/min).
	// 0 disables throttling.
	SubmitPerMinute int
	// WatchdogGrace arms each instance's hung-job watchdog (core.Config).
	WatchdogGrace float64
	// Namespace prefixes the lease and checkpoint key namespaces. The
	// campaign scopes it per allocation so one allocation's leases can
	// never leak into the next.
	Namespace string
	// OnEvent observes fleet lifecycle notes (crashes, adoptions) for
	// the campaign's fault log; nil discards them.
	OnEvent func(msg string)
	// OnAnomaly observes conservation violations and unexpected store
	// failures; nil discards them.
	OnAnomaly func(msg string)
}

// CrashInfo reports what an instance crash orphaned: the jobs the dead
// instance was tracking (the caller kills them — their configurations
// are safe in the flushed checkpoints) and the couplings now awaiting
// adoption.
type CrashInfo struct {
	// Jobs are the dead instance's tracked job IDs, ascending.
	Jobs []sched.JobID
	// Couplings are the orphaned coupling names, in canonical order.
	Couplings []string
}

// Accounting tallies fleet robustness events for the campaign result.
type Accounting struct {
	// Crashes counts injected instance crashes.
	Crashes int
	// Adoptions counts couplings adopted by a surviving instance.
	Adoptions int
	// LeaseExpirations counts expired-lease takeovers.
	LeaseExpirations int
}

// Fleet is N workflow-manager instances over one scheduler, coordinating
// coupling ownership through store leases. Create with New, drive with
// Start/Stop; Crash models an instance failure. A Fleet is not safe for
// concurrent use: its methods run on clock callbacks or between clock
// steps, on the goroutine that drives the clock (DESIGN.md §6).
type Fleet struct {
	cfg    Config
	tel    *telemetry.Telemetry
	leases *LeaseTable
	// wmfleet.wm_crashes_total, wmfleet.wm_adoptions_total
	crashes, adoptions telemetry.Lazy[telemetry.Counter]
	disp               *dispatcher
	ckptNS             string

	instances []*instance
	order     []string // canonical coupling order
	specs     map[string]core.CouplingSpec
	cands     map[string]*telemetry.Lazy[telemetry.Counter] // wm.candidates_total per coupling, for the orphan path
	owner     map[string]int                                // coupling -> live owner index; -1 = orphaned
	terms     map[string]int64
	// parts holds the last known per-coupling checkpoint — the restore
	// source at Start and the fallback when a crash-time store flush
	// fails permanently (the fleet is one process, so an in-memory copy
	// is a legitimate stand-in for the store record it mirrors).
	parts   map[string]core.CouplingCheckpoint
	acc     Accounting
	started bool
	stopped bool
}

// instance is one workflow manager plus its conductor and renew ticker.
type instance struct {
	idx   int
	wm    *core.Workflow
	cond  *maestro.Conductor
	renew *vclock.Ticker
	alive bool
}

// dispatcher fans scheduler lifecycle callbacks out to every instance.
// The scheduler backend has single OnFinish/OnStart slots; the
// dispatcher registers once and forwards to all registered listeners
// (each WM ignores job IDs it does not track).
type dispatcher struct {
	finish []func(sched.JobID, sched.State)
	start  []func(sched.JobID)
}

func (d *dispatcher) bind(b maestro.Backend) {
	b.OnFinish(func(id sched.JobID, st sched.State) {
		for _, fn := range d.finish {
			fn(id, st)
		}
	})
	b.OnStart(func(id sched.JobID) {
		for _, fn := range d.start {
			fn(id)
		}
	})
}

// port adapts the shared backend for one instance's conductor: submits
// pass through, but callback registration appends to the dispatcher
// instead of overwriting the backend's single slot.
type port struct {
	backend maestro.Backend
	disp    *dispatcher
}

func (p *port) Submit(req sched.Request) (sched.JobID, error) { return p.backend.Submit(req) }
func (p *port) Cancel(id sched.JobID) bool                    { return p.backend.Cancel(id) }
func (p *port) Fail(id sched.JobID) error                     { return p.backend.Fail(id) }

func (p *port) OnFinish(fn func(sched.JobID, sched.State)) {
	p.disp.finish = append(p.disp.finish, fn)
}

func (p *port) OnStart(fn func(sched.JobID)) { p.disp.start = append(p.disp.start, fn) }

// New builds a fleet of cfg.Instances workflow managers. Coupling i goes
// to instance i mod N; every instance is built with AllowNoCouplings so
// a standby with nothing to manage is legal.
func New(cfg Config) (*Fleet, error) {
	if cfg.Clock == nil {
		return nil, errors.New("wmfleet: nil clock")
	}
	if cfg.Backend == nil {
		return nil, errors.New("wmfleet: nil backend")
	}
	if cfg.Store == nil {
		return nil, errors.New("wmfleet: nil store")
	}
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("wmfleet: instances must be >= 1, got %d", cfg.Instances)
	}
	if len(cfg.Couplings) == 0 {
		return nil, errors.New("wmfleet: no couplings")
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Nop()
	}
	f := &Fleet{
		cfg:    cfg,
		tel:    tel,
		ckptNS: cfg.Namespace + "-ckpt",
		specs:  make(map[string]core.CouplingSpec, len(cfg.Couplings)),
		cands:  make(map[string]*telemetry.Lazy[telemetry.Counter], len(cfg.Couplings)),
		owner:  make(map[string]int, len(cfg.Couplings)),
		terms:  make(map[string]int64, len(cfg.Couplings)),
		parts:  make(map[string]core.CouplingCheckpoint, len(cfg.Couplings)),
		disp:   &dispatcher{},
	}
	f.leases = NewLeaseTable(cfg.Clock, cfg.Store, tel, cfg.Namespace+"-lease")
	f.leases.onExpire = func() { f.acc.LeaseExpirations++ }
	for i, spec := range cfg.Couplings {
		if _, dup := f.specs[spec.Name]; dup {
			return nil, fmt.Errorf("wmfleet: duplicate coupling %q", spec.Name)
		}
		f.order = append(f.order, spec.Name)
		f.specs[spec.Name] = spec
		f.cands[spec.Name] = new(telemetry.Lazy[telemetry.Counter])
		f.owner[spec.Name] = i % cfg.Instances
	}
	f.disp.bind(cfg.Backend)
	perInstance := 0
	if cfg.SubmitPerMinute > 0 {
		perInstance = cfg.SubmitPerMinute / cfg.Instances
		if perInstance < 1 {
			perInstance = 1
		}
	}
	for i := 0; i < cfg.Instances; i++ {
		cond, err := maestro.NewConductor(cfg.Clock,
			&port{backend: cfg.Backend, disp: f.disp}, perInstance)
		if err != nil {
			return nil, err
		}
		var owned []core.CouplingSpec
		for j, spec := range cfg.Couplings {
			if j%cfg.Instances == i {
				owned = append(owned, spec)
			}
		}
		var static []sched.Request
		if i == 0 {
			static = cfg.StaticJobs
		}
		wm, err := core.New(core.Config{
			Clock:            cfg.Clock,
			Conductor:        cond,
			Couplings:        owned,
			PollEvery:        cfg.PollEvery,
			StaticJobs:       static,
			Seed:             cfg.Seed + int64(i+1)*104729,
			WatchdogGrace:    cfg.WatchdogGrace,
			Telemetry:        cfg.Telemetry,
			AllowNoCouplings: true,
		})
		if err != nil {
			return nil, err
		}
		f.instances = append(f.instances, &instance{idx: i, wm: wm, cond: cond, alive: true})
	}
	return f, nil
}

// Restore rehydrates the fleet from a checkpoint document (the previous
// allocation's Checkpoint output, fleet-produced or single-WM), routing
// each coupling's record to its initial owner. Must precede Start.
func (f *Fleet) Restore(data []byte) error {
	if f.started {
		return errors.New("wmfleet: restore must precede Start")
	}
	parts, err := core.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	foreign := 0
	for _, part := range parts {
		o, ok := f.owner[part.Name]
		if !ok {
			foreign++
			continue
		}
		f.parts[part.Name] = part
		if err := f.instances[o].wm.RestoreCoupling(part); err != nil {
			return err
		}
	}
	if foreign > 0 {
		return fmt.Errorf("wmfleet: checkpoint has %d couplings the fleet does not manage", foreign)
	}
	return nil
}

// Start acquires every coupling's initial lease, publishes each
// coupling's starting checkpoint to the store (so a crash before the
// first flush still leaves adopters a record), starts every instance,
// and arms the renew/sweep tickers.
func (f *Fleet) Start() error {
	if f.started {
		return errors.New("wmfleet: already started")
	}
	f.started = true
	for _, name := range f.order {
		holder := f.owner[name]
		term, ok, err := f.leases.Acquire(holder, name)
		if err != nil {
			// A store failure past the armor, as in renewTick: ownership
			// is in-process knowledge, so keep it at term 0 — which no
			// record carries, so the holder's first renew tick re-acquires.
			f.anomaly(fmt.Sprintf("wmfleet: instance %d initial lease for %s failed: %v", holder, name, err))
		} else if !ok {
			return fmt.Errorf("wmfleet: lease for %s unexpectedly held at start", name)
		}
		f.terms[name] = term
		if err := f.flushCoupling(f.instances[holder], name); err != nil {
			f.anomaly(fmt.Sprintf("wmfleet: start flush of %s failed: %v (in-memory copy retained)", name, err))
		}
	}
	for _, inst := range f.instances {
		if err := inst.wm.Start(); err != nil {
			return err
		}
	}
	for _, inst := range f.instances {
		inst := inst
		inst.renew = vclock.NewTicker(f.cfg.Clock, renewEvery, func(time.Time) {
			f.renewTick(inst)
		})
	}
	return nil
}

// Stop halts every live instance's tickers and conductor; running jobs
// continue in the scheduler.
func (f *Fleet) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	for _, inst := range f.live() {
		if inst.renew != nil {
			inst.renew.Stop()
		}
		inst.wm.Stop()
		inst.cond.Close()
	}
}

// Crash models instance idx dying mid-run: its tickers stop, its
// conductor flushes, and each of its couplings gets a final checkpoint
// flushed through the store before being marked orphaned. Its leases are
// NOT released — they expire naturally, which is exactly the signal
// survivors adopt on. The last live instance refuses to crash (a fleet
// of zero cannot finish the campaign).
func (f *Fleet) Crash(idx int) (CrashInfo, error) {
	if idx < 0 || idx >= len(f.instances) {
		return CrashInfo{}, fmt.Errorf("wmfleet: no instance %d", idx)
	}
	inst := f.instances[idx]
	if !inst.alive {
		return CrashInfo{}, fmt.Errorf("wmfleet: instance %d already dead", idx)
	}
	if len(f.live()) <= 1 {
		return CrashInfo{}, errors.New("wmfleet: refusing to crash the last live instance")
	}
	if inst.renew != nil {
		inst.renew.Stop()
	}
	jobs := inst.wm.LiveJobIDs()
	inst.wm.Stop()
	inst.cond.Close() // queued submissions fail back into the victim's state

	info := CrashInfo{Jobs: jobs}
	for _, name := range f.order {
		if f.owner[name] != idx {
			continue
		}
		// Final checkpoint flush: a real WM cannot checkpoint after
		// dying, but its last periodic flush would hold the same state;
		// capturing it at crash time models that without a redundant
		// flush schedule.
		if err := f.flushCoupling(inst, name); err != nil {
			f.anomaly(fmt.Sprintf("wmfleet: crash flush of %s failed: %v (in-memory copy retained)", name, err))
		}
		f.owner[name] = -1
		info.Couplings = append(info.Couplings, name)
	}
	inst.alive = false
	f.acc.Crashes++
	f.crashes.Get(f.tel, "wmfleet.wm_crashes_total").Inc()
	now := f.cfg.Clock.Now()
	f.tel.RecordSpan("wmfleet", "crash", now, 0,
		"instance", idx, "couplings", len(info.Couplings))
	return info, nil
}

// flushCoupling checkpoints one coupling from inst and publishes
// it to the checkpoint namespace as a one-coupling checkpoint document,
// keeping the in-memory copy as the fallback adoption source.
func (f *Fleet) flushCoupling(inst *instance, name string) error {
	ck, err := inst.wm.CheckpointCoupling(name)
	if err != nil {
		return err
	}
	f.parts[name] = ck
	doc, err := core.EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return f.cfg.Store.Put(f.ckptNS, name, doc)
}

// renewTick is one instance's periodic lease maintenance: renew every
// owned coupling, then sweep for orphans to adopt.
func (f *Fleet) renewTick(inst *instance) {
	if f.stopped || !inst.alive {
		return
	}
	for _, name := range f.order {
		if f.owner[name] != inst.idx {
			continue
		}
		ok, err := f.leases.Renew(inst.idx, f.terms[name], name)
		if err != nil {
			// A store failure past the armor: keep ownership (liveness
			// is in-process knowledge, see sweep below) and retry next
			// tick.
			f.anomaly(fmt.Sprintf("wmfleet: instance %d renew of %s failed: %v", inst.idx, name, err))
			continue
		}
		if !ok {
			// The lease lapsed (e.g. a long store-fault burst ate the
			// renewal margin). Ownership is decided by liveness, not the
			// record, so re-acquire rather than abandon the coupling.
			term, ok2, err := f.leases.Acquire(inst.idx, name)
			if err != nil || !ok2 {
				f.anomaly(fmt.Sprintf("wmfleet: instance %d could not re-acquire lease for %s: %v", inst.idx, name, err))
				continue
			}
			f.terms[name] = term
		}
	}
	f.sweep(inst)
}

// sweep adopts couplings whose owner is dead and whose store lease
// has expired. Requiring both is the split-brain guard: the fleet shares
// a process, so instance liveness is reliable in-process knowledge
// (modeling the fleet-gossip a real deployment would run), and the lease
// expiry gates WHEN adoption is safe — a slow-but-alive owner whose
// renewals are failing keeps its couplings. The lease term bump inside
// Acquire is the true double-adoption gate.
func (f *Fleet) sweep(inst *instance) {
	for _, name := range f.order {
		o := f.owner[name]
		if o >= 0 && f.instances[o].alive {
			continue
		}
		expired, err := f.leases.Expired(name)
		if err != nil {
			f.anomaly(fmt.Sprintf("wmfleet: lease check for %s failed: %v", name, err))
			continue
		}
		if !expired {
			continue // the dead owner's lease has not run out yet
		}
		f.adopt(inst, name)
	}
}

// adopt has inst take over one orphaned coupling: win the lease,
// replay the checkpointed state, and verify conservation (everything
// ready, running, or in setup before the crash must be ready or in setup
// after adoption).
func (f *Fleet) adopt(inst *instance, name string) {
	term, ok, err := f.leases.Acquire(inst.idx, name)
	if err != nil {
		f.anomaly(fmt.Sprintf("wmfleet: instance %d adopt-acquire of %s failed: %v", inst.idx, name, err))
		return
	}
	if !ok {
		return // another instance won the lease first
	}
	start := f.cfg.Clock.Now()
	part, err := f.storedPart(name)
	var st core.CouplingStats
	if err == nil {
		st, err = inst.wm.AdoptCoupling(f.specs[name], part)
	}
	if err != nil {
		f.anomaly(fmt.Sprintf("wmfleet: instance %d adoption of %s failed: %v", inst.idx, name, err))
		return
	}
	if want, got := part.Selections(), st.Ready+st.InSetup; got != want {
		f.anomaly(fmt.Sprintf("wm-adopt lost selections in %s: %d before, %d after", name, want, got))
	}
	f.owner[name] = inst.idx
	f.terms[name] = term
	f.acc.Adoptions++
	f.adoptions.Get(f.tel, "wmfleet.wm_adoptions_total").Inc()
	f.tel.RecordSpan("wmfleet", "adopt", start, f.cfg.Clock.Now().Sub(start),
		"coupling", name, "instance", inst.idx, "term", term)
	f.event(fmt.Sprintf("wm-adopt coupling=%s instance=%d term=%d", name, inst.idx+1, term))
}

// storedPart reads one coupling's record back from the checkpoint
// namespace. When the store cannot serve it (fault burst or lost flush)
// the in-memory mirror stands in.
func (f *Fleet) storedPart(name string) (core.CouplingCheckpoint, error) {
	doc, err := f.cfg.Store.Get(f.ckptNS, name)
	if err != nil {
		return f.parts[name], nil
	}
	parts, err := core.DecodeCheckpoint(doc)
	if err != nil {
		return core.CouplingCheckpoint{}, err
	}
	if len(parts) != 1 {
		return core.CouplingCheckpoint{}, fmt.Errorf("wmfleet: store record holds %d couplings, want 1", len(parts))
	}
	return parts[0], nil
}

// AddCandidate routes a coarse-scale candidate to the coupling's owning
// instance. During the orphan window between a crash and adoption the
// candidate goes straight to the coupling's selector — selectors are
// shared campaign state, so nothing is lost while ownership is in
// flight.
func (f *Fleet) AddCandidate(coupling string, p dynim.Point) error {
	spec, known := f.specs[coupling]
	if !known {
		return fmt.Errorf("wmfleet: unknown coupling %q", coupling)
	}
	if o := f.owner[coupling]; o >= 0 && f.instances[o].alive {
		return f.instances[o].wm.AddCandidate(coupling, p)
	}
	if err := spec.Selector.Add(p); err != nil {
		return err
	}
	f.cands[coupling].Get(f.tel, "wm.candidates_total", "coupling", coupling).Inc()
	return nil
}

// Checkpoint encodes the fleet's state as one checkpoint document in
// canonical coupling order — the document a single WM writes, so a fleet
// campaign's next allocation can restore at any fleet size.
func (f *Fleet) Checkpoint() ([]byte, error) {
	parts := make([]core.CouplingCheckpoint, 0, len(f.order))
	for _, name := range f.order {
		o := f.owner[name]
		if o >= 0 && f.instances[o].alive {
			ck, err := f.instances[o].wm.CheckpointCoupling(name)
			if err != nil {
				return nil, err
			}
			parts = append(parts, ck)
			continue
		}
		part, ok := f.parts[name]
		if !ok {
			return nil, fmt.Errorf("wmfleet: no checkpoint for orphaned coupling %q", name)
		}
		parts = append(parts, part)
	}
	return core.EncodeCheckpoint(parts...)
}

// Stats reports per-coupling progress in canonical order. Owned
// couplings report live WM state; orphaned ones report their last
// checkpointed counts (running simulations counted as ready, matching
// what adoption will restore).
func (f *Fleet) Stats() []core.CouplingStats {
	out := make([]core.CouplingStats, 0, len(f.order))
	for _, name := range f.order {
		o := f.owner[name]
		if o >= 0 && f.instances[o].alive {
			for _, cs := range f.instances[o].wm.Stats() {
				if cs.Name == name {
					out = append(out, cs)
					break
				}
			}
			continue
		}
		cs := f.parts[name].Stats()
		cs.Candidates = f.specs[name].Selector.Len()
		out = append(out, cs)
	}
	return out
}

// Accounting returns the fleet's robustness tallies.
func (f *Fleet) Accounting() Accounting {
	return f.acc
}

// Instances returns the configured fleet size.
func (f *Fleet) Instances() int { return len(f.instances) }

// Alive reports whether instance idx is still live.
func (f *Fleet) Alive(idx int) bool {
	return idx >= 0 && idx < len(f.instances) && f.instances[idx].alive
}

// LiveInstances returns the live instance indices, ascending — the
// deterministic victim pool for random-target crash injection.
func (f *Fleet) LiveInstances() []int {
	out := make([]int, 0, len(f.instances))
	for _, inst := range f.instances {
		if inst.alive {
			out = append(out, inst.idx)
		}
	}
	return out
}

// Owner returns the live owner index of a coupling (-1 while orphaned)
// and whether the coupling is managed by this fleet.
func (f *Fleet) Owner(coupling string) (int, bool) {
	o, ok := f.owner[coupling]
	if !ok {
		return -1, false
	}
	if o >= 0 && !f.instances[o].alive {
		o = -1
	}
	return o, true
}

// live returns the live instances in index order.
func (f *Fleet) live() []*instance {
	var out []*instance
	for _, inst := range f.instances {
		if inst.alive {
			out = append(out, inst)
		}
	}
	return out
}

// event forwards a lifecycle note to the campaign's fault log.
func (f *Fleet) event(msg string) {
	if f.cfg.OnEvent != nil {
		f.cfg.OnEvent(msg)
	}
}

// anomaly forwards a conservation or store failure to the campaign's
// anomaly log.
func (f *Fleet) anomaly(msg string) {
	if f.cfg.OnAnomaly != nil {
		f.cfg.OnAnomaly(msg)
	}
}
