package campaign

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/core"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/faults"
	"mummi/internal/profile"
	"mummi/internal/sched"
	"mummi/internal/sim"
	"mummi/internal/stats"
	"mummi/internal/telemetry"
	"mummi/internal/units"
	"mummi/internal/vclock"
)

// Epoch is when the paper's campaign began (Dec 2020).
var Epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

type simKind int

const (
	kindCG simKind = iota
	kindAA
)

// simRecord tracks one simulation across allocations (the paper's
// checkpoint/restart continuity).
type simRecord struct {
	kind     simKind
	target   units.SimTime
	progress units.SimTime
	// candMark is the progress up to which AA-candidate frames have been
	// accounted.
	candMark units.SimTime
	rate     units.Rate
	size     int
	// base seeds this simulation's conformational region (frame-candidate
	// coordinates cluster around it).
	base [3]float64
	done bool
}

// Campaign is the replay engine. Create with NewCampaign, drive with Run or
// Step.
type Campaign struct {
	cfg Config
	clk *vclock.Virtual
	rng *rand.Rand
	tel *telemetry.Telemetry

	patchSel dynim.Selector
	frameSel *dynim.Binned

	// Task-4 state (wired when Config.FeedbackEvery > 0): frame records
	// flow through fbStore's active namespaces and the feedback passes
	// move them out ("tagging"). fbSeq numbers records deterministically.
	fbStore   datastore.Store
	cgFB      *feedbackPass
	aaFB      *feedbackPass
	fbSeq     int64
	putErrors telemetry.Lazy[telemetry.Counter]

	// eng injects the chaos plan (nil when Config.Faults is nil).
	eng *faults.Engine

	// fleetStore carries the distributed-WM fleet's lease and checkpoint
	// traffic (wired when Config.WMInstances > 1; shares the feedback
	// store's armored stack when that exists).
	fleetStore datastore.Store

	recs    map[string]*simRecord
	walks   [][]float64 // per-protein 9-D encodings, random-walking
	candAcc float64     // fractional AA-candidate accumulator
	subAcc  float64     // fractional subsample accumulator

	// patchCoords is every patch offer's encoding, refilled per patch: the
	// selector copies what it keeps (dynim.Selector.Add).
	patchCoords [9]float64

	schedule    []RunSpec // one entry per allocation, in Table 1 order
	totalWall   time.Duration
	elapsedWall time.Duration
	ckpt        []byte // the WM checkpoint the next allocation restores

	res *Result

	// per-run state
	cur    *allocation // nil between allocations
	active activeSet   // the current allocation's running simulation jobs
	err    error       // first error raised inside a clock callback (see fail)
}

// allocation is the rig of the allocation in progress: what begin builds
// and end tears down.
type allocation struct {
	spec       RunSpec
	start, end time.Time
	machine    *cluster.Machine
	s          *sched.Scheduler
	wm         coordinator
	prof       *profile.Profiler
	failTicker *vclock.Ticker       // nil without Config.FailuresPerDay
	hb         *telemetry.Heartbeat // nil without a heartbeat
}

// fail records the first error a clock callback cannot return; Step stops
// the campaign after that event and Run returns it.
func (c *Campaign) fail(err error) { c.err = cmp.Or(c.err, err) }

type activeJob struct {
	simID string // never empty: the campaign's simulation IDs carry a scale prefix
	rate  units.Rate
	start time.Time
}

// activeSet holds the allocation's running simulation jobs: their records
// in a sched.JobTable, and a Fenwick count over ID presence (dense from 1,
// setup and static jobs included), which draws a victim in O(log n),
// sorting nothing. end resets it in place, so each allocation reuses the
// previous one's arrays.
type activeSet struct {
	jobs sched.JobTable[activeJob]
	live stats.Fenwick
}

func (s *activeSet) get(id sched.JobID) (activeJob, bool) { return s.jobs.Get(id) }

// ascending returns the live IDs in ascending order: the order settles and
// banks feed the replay in.
func (s *activeSet) ascending() []sched.JobID { return s.jobs.Ascending() }

func (s *activeSet) put(id sched.JobID, aj activeJob) {
	if s.jobs.Put(id, aj) {
		s.live.Grow(int(id) + 1)
		s.live.Add(int(id), 1)
	}
}

// remove drops id; an absent ID, or one above every ID put (a late end
// from the previous allocation's scheduler), is a no-op.
func (s *activeSet) remove(id sched.JobID) {
	if s.jobs.Remove(id) {
		s.live.Add(int(id), -1)
	}
}

// reset empties the set, keeping its arrays.
func (s *activeSet) reset() {
	for _, id := range s.ascending() {
		s.remove(id)
	}
}

// pick returns the live ID of ascending rank rng.Intn(n), or 0 without a
// draw when the set is empty.
func (s *activeSet) pick(rng *rand.Rand) sched.JobID {
	if s.jobs.Len() == 0 {
		return 0
	}
	return sched.JobID(s.live.Kth(rng.Intn(s.jobs.Len())))
}

// NewCampaign builds the engine.
func NewCampaign(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Runs) == 0 {
		return nil, fmt.Errorf("campaign: no runs configured")
	}
	if !cfg.Scales.Valid() {
		return nil, fmt.Errorf("campaign: unknown scale mode %q", cfg.Scales)
	}
	c := &Campaign{
		cfg:  cfg,
		clk:  vclock.NewVirtual(Epoch),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		recs: make(map[string]*simRecord),
		res:  newResult(),
	}
	// Rebind the caller's telemetry to the campaign's virtual clock before
	// anything measures with it: every span and histogram sample becomes a
	// pure function of the replay.
	c.tel = cfg.Telemetry
	if c.tel != nil {
		c.tel.SetClock(c.clk)
	} else {
		c.tel = telemetry.Nop()
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: bad fault plan: %w", err)
		}
		c.eng = faults.NewEngine(c.clk, c.tel, cfg.Faults)
		c.startChaos()
	}
	if cfg.FeedbackEvery > 0 {
		c.fbStore = c.newStore()
		c.cgFB = &feedbackPass{store: c.fbStore, srcNS: "cg-active", dstNS: "cg-done"}
		c.aaFB = &feedbackPass{store: c.fbStore, srcNS: "aa-active", dstNS: "aa-done"}
	}
	if cfg.WMInstances > 1 {
		// The fleet's lease/checkpoint traffic crosses the same armored
		// stack as the feedback loop, so injected store faults hit lease
		// renewals exactly like any other store client.
		c.fleetStore = c.fbStore
		if c.fleetStore == nil {
			c.fleetStore = c.newStore()
		}
	}
	for _, r := range cfg.Runs {
		c.totalWall += time.Duration(r.Count) * r.Wall
		for range r.Count {
			c.schedule = append(c.schedule, r)
		}
	}
	qs := dynim.NewQueueSet(9, cfg.PatchQueueCap, func(p dynim.Point) string {
		// Five queues by protein configuration, as in the paper; route on a
		// stable hash of the candidate id.
		h := uint32(2166136261)
		for i := 0; i < len(p.ID); i++ {
			h = (h ^ uint32(p.ID[i])) * 16777619
		}
		return patchQueues[h%uint32(len(patchQueues))]
	})
	qs.SetWorkers(cfg.SelectorWorkers)
	qs.SetTelemetry(cfg.Telemetry)
	c.patchSel = qs
	dims := make([]dynim.BinDim, 3)
	for i := range dims {
		dims[i] = dynim.BinDim{Lo: 0, Hi: 1, Bins: cfg.FrameBins}
	}
	fs, err := dynim.NewBinned(dims, 0.8, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	fs.SetTelemetry(cfg.Telemetry)
	c.frameSel = fs
	// 9-D protein walks seed patch encodings.
	c.walks = make([][]float64, cfg.PatchesPerSnapshot)
	for i := range c.walks {
		w := make([]float64, 9)
		for j := range w {
			w[j] = c.rng.NormFloat64()
		}
		c.walks[i] = w
	}
	return c, nil
}

// newStore builds the campaign's store stack over an in-memory backend.
// Layering order matters: Instrument measures the honest backend, WrapStore
// injects plan faults on top of it, and Armor retries the transient ones — so
// retry traffic shows up in the instrumented op counts exactly like a real
// flaky filesystem would. With no engine WrapStore is a pass-through and
// Armor only adds its (unused) retry accounting.
func (c *Campaign) newStore() datastore.Store {
	return datastore.Armor(
		faults.WrapStore(datastore.Instrument(datastore.NewMemory(), c.tel, "memory"), c.eng),
		c.tel, "memory", datastore.ArmorOptions{})
}

var patchQueues = []string{"ras-a", "ras-b", "ras-raf-a", "ras-raf-b", "ras-multi"}

// chaosWatchdogGrace is the hung-job watchdog grace factor chaos replays arm
// (a job still running at 1.5× its modeled duration is presumed wedged).
const chaosWatchdogGrace = 1.5

// Run replays the whole campaign and returns the collected results.
func Run(cfg Config) (*Result, error) {
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// Run executes every allocation in sequence.
func (c *Campaign) Run() (*Result, error) {
	for c.Step() {
	}
	if c.err != nil {
		return nil, c.err
	}
	c.finalizeResult()
	return c.res, nil
}

// Step advances the campaign by one move: it begins the next allocation,
// runs the current allocation's next clock event, or ends the allocation
// once no event is due by its end. It returns false when the schedule is
// done or an error has stopped the campaign (Run returns the error).
// Between Steps the replay is at rest, so observers attach there.
func (c *Campaign) Step() bool {
	switch a := c.cur; {
	case c.err != nil || a == nil && c.res.RunsDone == len(c.schedule):
		return false
	case a == nil:
		c.fail(c.begin(c.schedule[c.res.RunsDone]))
	default:
		// The end is a boundary, not a clock event: an end event queued at
		// begin would run before same-instant events queued after it.
		if t, ok := c.clk.Next(); ok && !t.After(a.end) {
			c.clk.Step()
			if c.err == nil {
				return true
			}
		} else {
			c.clk.RunUntil(a.end) // nothing is due: this only moves the clock
		}
		c.end()
	}
	return c.err == nil
}

// mpiBugActive reports whether the campaign is still in the miscompiled-MPI
// era.
func (c *Campaign) mpiBugActive() bool {
	return float64(c.elapsedWall) < c.cfg.MPIBugFraction*float64(c.totalWall)
}

// continuumNodes sizes the continuum allocation for a run (150 nodes when
// the machine affords it, scaled down on small runs — the source of
// Fig. 4's continuum performance modes).
func continuumNodes(nodes int) int { return max(1, min(150, nodes/2)) }

// begin builds the rig every allocation shares — machine, scheduler,
// profiler, snapshot stream, failure ticker, heartbeat — around a
// coordinator (see coordinator.go), which is the only part that differs
// between a single workflow manager and a fleet, restores the previous
// allocation's checkpoint into it and starts it. The checkpoint is always in
// the single-WM format, so fleet size can change between allocations.
func (c *Campaign) begin(spec RunSpec) error {
	machine, err := cluster.New(cluster.Summit(spec.Nodes))
	if err != nil {
		return err
	}
	statusPoll := time.Duration(0)
	if c.cfg.ModelStatusLoad {
		statusPoll = c.cfg.ProfileEvery
	}
	s, err := sched.New(c.clk, sched.Config{
		Machine: machine, Policy: c.cfg.SchedPolicy, Mode: c.cfg.SchedMode,
		Costs: c.cfg.SchedCosts, StatusPollEvery: statusPoll,
		Telemetry: c.tel, RecordTimeline: c.keptTimeline(spec.Nodes) != nil,
	})
	if err != nil {
		return err
	}

	totalGPUs := machine.Topology().TotalGPUs()
	cgSlots := int(float64(totalGPUs) * c.cfg.CGShare)
	aaSlots := max(1, totalGPUs-cgSlots)

	// In the three-scale regime a live continuum job occupies contNodes and
	// produces the snapshot stream; in the two-scale (mini-MuMMI) regime the
	// stream is an archive replayed at the same published rate, the nodes
	// stay free for simulations, and no continuum job is scheduled.
	contNodes := continuumNodes(spec.Nodes)
	contRate := sim.ContinuumPerf(contNodes * 24)
	var staticJobs []sched.Request
	if c.cfg.Scales == ThreeScale {
		staticJobs = []sched.Request{
			{Name: "continuum", NodeCount: contNodes, Cores: 24},
		}
	}

	wm, err := c.newCoordinator(s, c.couplings(cgSlots, aaSlots, spec.Nodes), staticJobs)
	if err != nil {
		return err
	}
	if c.ckpt != nil {
		if err := wm.Restore(c.ckpt); err != nil {
			return err
		}
	}

	now := c.clk.Now()
	a := &allocation{spec: spec, start: now, end: now.Add(spec.Wall),
		machine: machine, s: s, wm: wm}
	a.prof = profile.New(c.clk, c.cfg.ProfileEvery, func() profile.Event {
		q, running, _ := s.Counts()
		return profile.Event{
			GPUFrac: machine.GPUOccupancy(),
			CPUFrac: machine.CPUOccupancy(),
			Running: running, Pending: q,
		}
	})

	// Continuum snapshot stream: one snapshot per µs of continuum time; one
	// due after this allocation's end is dropped.
	var scheduleSnapshot func()
	scheduleSnapshot = func() {
		c.clk.After(contRate.WallFor(1*units.Microsecond), func() {
			if c.cur != a {
				return
			}
			c.onSnapshot(wm, contNodes)
			scheduleSnapshot()
		})
	}
	scheduleSnapshot()

	// Failure injection: every half hour, fail the expected share of
	// running simulation jobs. Progress up to the failure survives (the
	// simulation checkpoints), so the resubmitted job resumes — the
	// paper's resilience path, exercised continuously.
	// Known defect, kept because its fix moves Result bytes (ROADMAP
	// "Failures at the configured rate"): perTick is used as a probability
	// and a tick kills at most one job, so the rate saturates at 48 a day
	// whatever Config.FailuresPerDay asks (replay-coord asks 400/day and
	// injects 430 in 9 × 24 h).
	if c.cfg.FailuresPerDay > 0 {
		perTick := c.cfg.FailuresPerDay / 48
		a.failTicker = vclock.NewTicker(c.clk, 30*time.Minute, func(time.Time) {
			if c.rng.Float64() >= perTick {
				return
			}
			victim := c.active.pick(c.rng)
			if victim == 0 {
				return
			}
			// Bank the progress made so far, then kill the job.
			c.bankActive(victim)
			c.active.remove(victim)
			c.res.InjectedFailures++
			if err := s.Fail(victim); err != nil && !errors.Is(err, sched.ErrAlreadyTerminal) {
				// The victim was picked from the active set, so the
				// scheduler disagreeing about its state is a coordination
				// anomaly worth keeping, not a failure of the run. (Losing
				// to the auto-completion race is benign and filtered.)
				c.res.Anomalies = append(c.res.Anomalies,
					fmt.Sprintf("fail-injection job %d: %v", victim, err))
			}
		})
	}

	// Heartbeat: the terminal stand-in for the paper's live dashboards.
	if c.cfg.HeartbeatEvery > 0 && c.cfg.HeartbeatWriter != nil {
		a.hb = telemetry.NewHeartbeat(c.clk, c.cfg.HeartbeatEvery, c.cfg.HeartbeatWriter,
			func(now time.Time) string { return c.heartbeatLine(now, a) })
	}

	if err := wm.Start(); err != nil {
		return err
	}
	c.cur = a
	return nil
}

// end tears the current allocation down: stop its producers, flush the
// conductors (queued submissions fail back into WM state), settle the
// running simulations, checkpoint, and merge the allocation into the result.
// Known defect, kept because its fix moves Result bytes (ROADMAP "An
// allocation ends at its boundary"): s.Close leaves running jobs'
// auto-completion events on the clock; they fire in the next allocation,
// where the stopped manager's OnSimEnd deletes a live job of the new
// scheduler from c.active when IDs collide (they restart at 1) and credits
// trajectory this settle already accounted.
func (c *Campaign) end() {
	a := c.cur
	c.cur = nil
	if a.failTicker != nil {
		a.failTicker.Stop()
	}
	if a.hb != nil {
		a.hb.Stop()
	}
	if c.tel.Tracing() { // boxing the arguments costs allocations
		c.tel.RecordSpan("campaign", "allocation", a.start, c.clk.Now().Sub(a.start),
			append([]any{"run", c.res.RunsDone + 1, "nodes", a.spec.Nodes}, a.wm.spanArgs()...)...)
	}
	a.wm.Stop()
	a.prof.Stop()
	a.s.Close()
	for _, id := range c.active.ascending() {
		if job, ok := a.s.Job(id); ok && job.State == sched.Running {
			aj, _ := c.active.get(id)
			c.settle(aj.simID, aj.rate.SimFor(c.clk.Now().Sub(aj.start)), false)
		}
	}
	c.active.reset()
	if c.err != nil {
		return
	}
	b, err := a.wm.Checkpoint()
	if err != nil {
		c.fail(err)
		return
	}
	c.ckpt = b

	// Merge profiling and stats.
	a.wm.merge(c.res)
	nh := units.NodeHoursFor(a.spec.Nodes, a.spec.Wall)
	c.res.ProfileEvents = append(c.res.ProfileEvents, a.prof.Events()...)
	c.res.RunsDone++
	c.res.TotalNodeHours += nh
	c.res.MatcherVisits += a.s.MatcherVisits()
	c.res.Table1 = append(c.res.Table1, RunLedger{Nodes: a.spec.Nodes, Wall: a.spec.Wall, NodeHours: nh})
	c.elapsedWall += a.spec.Wall

	// Fig. 6 keeps the first placement timeline of each node class: only
	// the scheduler begin asked to record has one. Its timeline is taken,
	// so late events reaching the closed scheduler do not keep it alive.
	if tl := c.keptTimeline(a.spec.Nodes); tl != nil {
		for _, p := range a.s.Timeline() {
			*tl = append(*tl, TimelinePoint{Offset: p.Time.Sub(a.start), Job: int64(p.Job)})
		}
	}
}

// keptTimeline returns the Fig. 6 series an allocation of the given node
// count fills, or nil when Fig. 6 does not keep its placements: the first
// timeline of each node class (1000+ and 4000+ nodes) is kept.
func (c *Campaign) keptTimeline(nodes int) *[]TimelinePoint {
	tl := &c.res.Timeline1000
	if nodes >= 4000 {
		tl = &c.res.Timeline4000
	}
	if nodes < 1000 || *tl != nil {
		return nil
	}
	return tl
}

// startChaos starts the plan on one schedule for the whole campaign: windows
// are offsets from the epoch, pending faults roll across allocation
// boundaries, and the timed classes act on whichever allocation is current
// when they fire (no clock event runs between allocations).
func (c *Campaign) startChaos() {
	c.eng.SetHandler(faults.NodeCrash, func(r faults.Rule, rng *rand.Rand) {
		a := c.cur
		node := rng.Intn(a.machine.NumNodes())
		// Bank progress for the sims dying with the node; the workflow
		// resubmits them and they resume from the banked progress (the
		// simulations' own checkpoints survive the node).
		for _, id := range c.active.ascending() {
			if job, ok := a.s.Job(id); ok && job.State == sched.Running && allocOnNode(job.Alloc, node) {
				c.bankActive(id)
			}
		}
		victims := a.s.Crash(node)
		c.res.NodeCrashes++
		msg := fmt.Sprintf("node-crash node=%d killed=%d recovery=%s", node, len(victims), r.Recovery)
		c.noteFault(msg)
		c.eng.Note(msg)
		c.clk.After(r.Recovery, func() {
			if c.cur != a { // due after a's end: the machine is gone
				return
			}
			a.s.Revive(node)
			c.noteFault(fmt.Sprintf("node-revive node=%d", node))
		})
	})
	c.eng.SetHandler(faults.JobHang, func(r faults.Rule, rng *rand.Rand) {
		id := c.active.pick(rng)
		if id == 0 || !c.cur.s.Hang(id) {
			return
		}
		// Bank progress up to the wedge; from here the job holds its GPU
		// while advancing nothing (zero rate) until the watchdog kills it
		// or the allocation ends.
		c.bankActive(id)
		aj, _ := c.active.get(id)
		c.active.put(id, activeJob{simID: aj.simID, start: c.clk.Now()})
		c.res.JobHangs++
		msg := fmt.Sprintf("job-hang job=%d sim=%s", id, aj.simID)
		c.noteFault(msg)
		c.eng.Note(msg)
	})
	c.eng.SetHandler(faults.WMCrash, func(r faults.Rule, rng *rand.Rand) {
		c.cur.wm.Crash(r, rng)
	})
	c.eng.Start()
}

// heartbeatLine renders one status line of allocation a: machine occupancy,
// scheduler queue state, and per-coupling progress — the numbers an
// operator watches to keep a multi-day allocation alive.
func (c *Campaign) heartbeatLine(now time.Time, a *allocation) string {
	q, running, finished := a.s.Counts()
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] run %d (%dn): gpu=%.0f%% cpu=%.0f%% queued=%d running=%d done=%d",
		now.Format("2006-01-02 15:04"), c.res.RunsDone+1, a.spec.Nodes,
		a.machine.GPUOccupancy()*100, a.machine.CPUOccupancy()*100, q, running, finished)
	for _, cs := range a.wm.Stats() {
		fmt.Fprintf(&b, " | %s: ready=%d run=%d done=%d fb=%d",
			cs.Name, cs.Ready, cs.Running, cs.CompletedSims, cs.FeedbackRuns)
	}
	return b.String()
}

// onSnapshot models Task 1 for one continuum snapshot: advance the protein
// encodings, cut patches, offer them to the patch selector, and account the
// data products. In the two-scale regime the snapshot is read from an
// archive rather than produced, so only patch products are accounted — no
// continuum time, performance sample, or snapshot file.
func (c *Campaign) onSnapshot(wm coordinator, contNodes int) {
	c.res.Snapshots++
	if c.cfg.Scales == ThreeScale {
		c.res.ContinuumTotal += 1 * units.Microsecond
		perf := sim.ContinuumPerf(contNodes*24).SimFor(24*time.Hour).Milliseconds() *
			(1 + 0.01*c.rng.NormFloat64())
		c.res.ContinuumPerf = append(c.res.ContinuumPerf, perf)

		c.res.Files += 1 // snapshot file
		c.res.Bytes += int64(continuumSnapshotBytes)
	}

	var idBuf [24]byte
	for i := 0; i < c.cfg.PatchesPerSnapshot; i++ {
		// Protein walk: slow drift in 9-D encoding space.
		w := c.walks[i%len(c.walks)]
		for j := range w {
			w[j] += c.rng.NormFloat64() * 0.05
		}
		coords := c.patchCoords[:] // Add copies them
		for j := range coords {
			coords[j] = w[j] + c.rng.NormFloat64()*0.02
		}
		// Stabilize queue routing on the protein index, encoded in coord 0
		// fraction (see route function): simply use index-based id.
		id := string(appendPatchID(idBuf[:0], c.res.Snapshots, i))
		c.res.Patches++
		c.res.Files++
		c.res.Bytes += 70_000
		if err := wm.AddCandidate("continuum-to-cg", dynim.Point{ID: id, Coords: coords}); err != nil {
			c.fail(fmt.Errorf("campaign: offer patch %s: %w", id, err))
			return
		}
	}
}

// appendPatchID appends the ID of patch i of snapshot snap, the bytes of
// fmt.Sprintf("p%07d_%03d", snap, i) without the formatter: a campaign names
// millions of patches, one at a time, on the event loop.
func appendPatchID(buf []byte, snap, i int) []byte {
	buf = appendZeroPadded(append(buf, 'p'), int64(snap), 7)
	return appendZeroPadded(append(buf, '_'), int64(i), 3)
}

// appendFeedbackKey appends fmt.Sprintf("f%012d", seq)'s bytes.
func appendFeedbackKey(buf []byte, seq int64) []byte {
	return appendZeroPadded(append(buf, 'f'), seq, 12)
}

// appendFrameID appends fmt.Sprintf("%s_c%06d", simID, i)'s bytes.
func appendFrameID(buf []byte, simID string, i int64) []byte {
	return appendZeroPadded(append(append(buf, simID...), "_c"...), i, 6)
}

// appendZeroPadded appends v >= 0 in decimal, zero-padded to width digits
// and wider when v needs more, as %0*d does.
func appendZeroPadded(buf []byte, v int64, width int) []byte {
	var scratch [20]byte
	digits := strconv.AppendInt(scratch[:0], v, 10)
	for n := len(digits); n < width; n++ {
		buf = append(buf, '0')
	}
	return append(buf, digits...)
}

// continuumSnapshotBytes is one GridSim2D snapshot on disk: "∼374 MB" in
// its custom binary format (§4.1(1)).
const continuumSnapshotBytes = 374_000_000

// couplings declares one run's coupling list: a single builder over a table
// of what differs between the continuum→CG and CG→AA scales.
func (c *Campaign) couplings(cgSlots, aaSlots, nodes int) []core.CouplingSpec {
	// Setup jobs take 24 of a node's 44 cores, so at most one fits per node:
	// cap the combined setup targets at the node count or queued setups
	// head-of-line-block simulations (FCFS without backfilling).
	rows := []struct {
		name, prefix       string
		kind               simKind
		selector           dynim.Selector
		setupName          string
		setupCores         int
		setupMean          time.Duration
		simName            string
		feedback           *feedbackPass
		slots, setupTarget int
	}{
		{"continuum-to-cg", "cg:", kindCG, c.patchSel, "createsim", sim.CreatesimCores,
			sim.CreatesimDuration, "cg-sim", c.cgFB, cgSlots, max(2, nodes*2/3)},
		{"cg-to-aa", "aa:", kindAA, c.frameSel, "backmap", sim.BackmapCores,
			sim.BackmapDuration, "aa-sim", c.aaFB, aaSlots, max(1, nodes/3)},
	}
	specs := make([]core.CouplingSpec, len(rows))
	for i, r := range rows {
		specs[i] = core.CouplingSpec{
			Name:     r.name,
			Selector: r.selector,
			SetupReq: sched.Request{Name: r.setupName, Cores: r.setupCores},
			SetupDuration: func(rng *rand.Rand) time.Duration {
				return sim.SetupDuration(rng, r.setupMean)
			},
			SimReq: sched.Request{Name: r.simName, Cores: 3, GPUs: 1},
			SimDuration: func(rng *rand.Rand, p dynim.Point) time.Duration {
				rec := c.record(r.prefix+p.ID, r.kind, rng)
				remaining := rec.target - rec.progress
				if remaining <= 0 {
					return time.Minute
				}
				return rec.rate.WallFor(remaining)
			},
			MaxSims:     r.slots,
			ReadyTarget: c.readyTarget(r.slots),
			MaxSetups:   r.setupTarget,
			OnSimStart:  func(p dynim.Point, id sched.JobID) { c.onSimStart(r.prefix+p.ID, id) },
			OnSimEnd:    func(p dynim.Point, id sched.JobID, st sched.State) { c.onSimEnd(r.prefix+p.ID, id, st) },
		}
		if r.feedback != nil {
			specs[i].Feedback = r.feedback
			specs[i].FeedbackEvery = c.cfg.FeedbackEvery
		}
	}
	return specs
}

// readyTarget sizes the prepared-configuration inventory, which persists
// across allocations via the WM checkpoint. Half a machine's worth of
// prepared simulations lets a fresh allocation load at the submission
// throttle (~100 jobs/min — the paper's 1-hour 1000-node load) instead of
// waiting on 1.5–2 h setup jobs, while keeping staleness and CPU burn
// bounded; the separate MaxSetups cap governs concurrent setup jobs.
func (c *Campaign) readyTarget(slots int) int {
	return max(2, int(float64(slots)*c.cfg.InventoryFraction))
}

// record returns (creating on first use) the persistent record of one
// simulation.
func (c *Campaign) record(simID string, kind simKind, rng *rand.Rand) *simRecord {
	if rec, ok := c.recs[simID]; ok {
		return rec
	}
	rec := &simRecord{kind: kind}
	switch kind {
	case kindCG:
		rec.size = sim.CGParticles(rng)
		rec.rate = sim.CGPerf{MPIBugEra: c.mpiBugActive()}.Sample(rng, rec.size)
		// Retirement hazard capped at the 5 µs maximum (see package doc).
		rec.target = max(100*units.Nanosecond, min(sim.CGMaxLength,
			units.SimTime(rng.ExpFloat64()*float64(c.cfg.RetireMeanCG))))
		c.res.CGSelected++
		c.res.CGPerf = append(c.res.CGPerf,
			PerfSample{Size: rec.size, PerDay: rec.rate.SimFor(24 * time.Hour).Microseconds()})
	case kindAA:
		rec.size = sim.AAAtoms(rng)
		rec.rate = sim.AAPerf{}.Sample(rng, rec.size)
		span := float64(sim.AAMaxLength - sim.AAMinLength)
		uniform := sim.AAMinLength + units.SimTime(rng.Float64()*span)
		rec.target = max(units.Nanosecond, min(uniform,
			units.SimTime(rng.ExpFloat64()*float64(c.cfg.RetireMeanAA))))
		c.res.AASelected++
		c.res.AAPerf = append(c.res.AAPerf,
			PerfSample{Size: rec.size, PerDay: rec.rate.SimFor(24 * time.Hour).Nanoseconds()})
	}
	for i := range rec.base {
		rec.base[i] = c.rng.Float64()
	}
	c.recs[simID] = rec
	return rec
}

func (c *Campaign) onSimStart(simID string, id sched.JobID) {
	rec := c.recs[simID]
	if rec == nil {
		return
	}
	c.active.put(id, activeJob{simID: simID, rate: rec.rate, start: c.clk.Now()})
}

func (c *Campaign) onSimEnd(simID string, id sched.JobID, st sched.State) {
	c.active.remove(id)
	rec := c.recs[simID]
	if rec == nil {
		return
	}
	if st == sched.Completed {
		// The job ran its full sampled wall time: the simulation reached
		// its target.
		c.settle(simID, rec.target-rec.progress, true)
	}
	// Failed jobs resume from current progress via WM resubmission.
}

// settle advances a simulation's progress and accounts its data products
// and AA candidates; final marks the simulation finished.
func (c *Campaign) settle(simID string, delta units.SimTime, final bool) {
	rec := c.recs[simID]
	if rec == nil || rec.done {
		return
	}
	if delta < 0 {
		delta = 0
	}
	rec.progress += delta
	if rec.progress > rec.target {
		rec.progress = rec.target
	}
	switch rec.kind {
	case kindCG:
		c.accountCG(simID, rec)
	case kindAA:
		framesDelta := int64(float64(delta) / float64(100*units.Picosecond))
		c.res.Files += 1 * framesDelta // trajectory frames
		c.res.Bytes += framesDelta * int64(sim.AAFrameBytes)
		if framesDelta > 0 {
			c.fbPut("aa-active")
		}
	}
	if final || rec.progress >= rec.target {
		rec.done = true
		switch rec.kind {
		case kindCG:
			c.res.CGLengthsUs = append(c.res.CGLengthsUs, rec.progress.Microseconds())
			c.res.CGTotal += rec.progress
		case kindAA:
			c.res.AALengthsNs = append(c.res.AALengthsNs, rec.progress.Nanoseconds())
			c.res.AATotal += rec.progress
		}
	}
}

// accountCG converts new CG trajectory into frame counts, data volume, and
// AA candidates at the published densities.
func (c *Campaign) accountCG(simID string, rec *simRecord) {
	newSim := rec.progress - rec.candMark
	if newSim <= 0 {
		return
	}
	rec.candMark = rec.progress
	us := newSim.Microseconds()
	frames := int64(us / 0.0005) // one analyzed frame per 0.5 ns
	c.res.CGFrames += frames
	c.res.Files += frames * 3 // trajectory + analysis + RDF records
	c.res.Bytes += frames * int64(sim.CGFrameBytes+sim.CGAnalysisBytes)
	if frames > 0 {
		// One RDF batch record per settle feeds the CG→continuum loop.
		c.fbPut("cg-active")
	}

	c.candAcc += us * c.cfg.FrameCandidatesPerUs
	n := int(c.candAcc)
	c.candAcc -= float64(n)
	c.res.CGFrameCandidates += int64(n)
	c.res.Files += int64(n) // identifying-info records
	c.res.Bytes += int64(n) * int64(sim.CGFrameIdentBytes)
	for i := 0; i < n; i++ {
		// Subsample what actually enters the selector; accounting above is
		// full-rate (see Config.FrameCandidateSubsample).
		c.subAcc += c.cfg.FrameCandidateSubsample
		if c.subAcc < 1 {
			continue
		}
		c.subAcc--
		coords := [3]float64{ // Add copies them
			clamp01(rec.base[0] + c.rng.NormFloat64()*0.08),
			clamp01(rec.base[1] + c.rng.NormFloat64()*0.08),
			clamp01(rec.base[2] + c.rng.NormFloat64()*0.08),
		}
		id := string(appendFrameID(make([]byte, 0, 64), simID, c.res.CGFrameCandidates-int64(n)+int64(i)))
		if err := c.frameSel.Add(dynim.Point{ID: id, Coords: coords[:]}); err != nil {
			// The sampler's error names the point. Formatting id here too
			// would move it to the heap, which Add's copy avoids.
			c.fail(fmt.Errorf("campaign: offer frame: %w", err))
			return
		}
	}
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// bankActive settles a live simulation job's progress up to now and marks
// the candidate accounting caught up — the step before anything kills the
// job, so the progress its checkpoints hold is not lost and not recounted.
func (c *Campaign) bankActive(id sched.JobID) {
	aj, ok := c.active.get(id)
	if !ok {
		return
	}
	c.settle(aj.simID, aj.rate.SimFor(c.clk.Now().Sub(aj.start)), false)
	if rec := c.recs[aj.simID]; rec != nil {
		rec.candMark = rec.progress // avoid double-counting later
	}
}

// allocOnNode reports whether any part of the allocation lives on node.
func allocOnNode(a cluster.Alloc, node int) bool {
	for _, part := range a.Parts {
		if part.Node == node {
			return true
		}
	}
	return false
}

// noteFault records one injected fault or recovery in the anomaly log,
// stamped with virtual time. The lines are deterministic per (seed, plan),
// so same-seed chaos replays produce identical anomaly lists.
func (c *Campaign) noteFault(msg string) {
	c.res.Anomalies = append(c.res.Anomalies,
		"fault: "+c.clk.Now().UTC().Format("2006-01-02T15:04:05")+" "+msg)
}

// finalizeResult settles simulations that never completed (still queued as
// records at campaign end) and derives summary statistics.
func (c *Campaign) finalizeResult() {
	simIDs := make([]string, 0, len(c.recs))
	for simID := range c.recs {
		simIDs = append(simIDs, simID)
	}
	sort.Strings(simIDs) // determinism: fractional accumulators are order-sensitive
	for _, simID := range simIDs {
		if rec := c.recs[simID]; !rec.done && rec.progress > 0 {
			c.settle(simID, 0, true)
		}
	}
	c.res.finalize()
}
