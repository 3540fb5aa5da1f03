package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mummi/internal/dynim"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// The coordinator's bookkeeping — the watchdog's deadline heap and the
// ready deque — is held here to the scans it replaced, kept as oracles, and
// to a cost shape that counts bytes instead of timing anything.

// fakeBackend is a scheduler the test drives by hand: jobs start and finish
// only when told to, and Fail can be made to refuse.
type fakeBackend struct {
	next     sched.JobID
	queued   []sched.JobID        // submitted, not yet started; ascending
	running  map[sched.JobID]bool // started, not yet terminal
	onStart  func(sched.JobID)
	onFinish func(sched.JobID, sched.State)
	// kills logs every Fail the workflow asked for, in order. Fail on a
	// stubborn job returns a non-terminal error and changes nothing, so the
	// job stays overdue across polls.
	kills    []sched.JobID
	stubborn func(sched.JobID) bool
	// refuse makes the next that-many submissions fail.
	refuse int
}

var errBackendBusy = errors.New("fake backend: busy")

func (f *fakeBackend) Submit(sched.Request) (sched.JobID, error) {
	if f.refuse > 0 {
		f.refuse--
		return 0, errBackendBusy
	}
	f.next++
	f.queued = append(f.queued, f.next)
	return f.next, nil
}
func (f *fakeBackend) Cancel(sched.JobID) bool                    { return false }
func (f *fakeBackend) OnStart(fn func(sched.JobID))               { f.onStart = fn }
func (f *fakeBackend) OnFinish(fn func(sched.JobID, sched.State)) { f.onFinish = fn }
func (f *fakeBackend) finish(id sched.JobID, st sched.State) {
	delete(f.running, id)
	f.onFinish(id, st)
}
func (f *fakeBackend) startWhere(pick func(sched.JobID) bool) (n int) {
	var left []sched.JobID
	for _, id := range f.queued {
		if !pick(id) {
			left = append(left, id)
			continue
		}
		f.running[id] = true
		f.onStart(id)
		n++
	}
	f.queued = left
	return n
}

func (f *fakeBackend) Fail(id sched.JobID) error {
	f.kills = append(f.kills, id)
	if f.stubborn != nil && f.stubborn(id) {
		return errBackendBusy
	}
	if !f.running[id] {
		return sched.ErrAlreadyTerminal
	}
	f.finish(id, sched.Failed)
	return nil
}

type fakeRig struct {
	clk *vclock.Virtual
	be  *fakeBackend
	tel *telemetry.Telemetry
	w   *Workflow
	// lastSim is the configuration of the most recently started simulation
	// (loadedRig wires it).
	lastSim string
}

func newFakeRig(t *testing.T, cfg Config) *fakeRig {
	t.Helper()
	r := &fakeRig{clk: vclock.NewVirtual(epoch), be: &fakeBackend{running: map[sched.JobID]bool{}}, tel: telemetry.Nop()}
	cond, err := maestro.NewConductor(r.clk, r.be, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clock, cfg.Conductor, cfg.Telemetry = r.clk, cond, r.tel
	if r.w, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// scanSweep is the watchdog sweep as it was before the deadline heap:
// every tracked job, in ascending ID order, on every poll. Verbatim but for
// the job table's accessors, which replaced a map.
func scanSweep(w *Workflow) []sched.JobID {
	if w.watchdogGrace <= 0 {
		return nil
	}
	now := w.clk.Now()
	var overdue []sched.JobID
	for _, id := range w.jobs.Ascending() {
		rec, _ := w.jobs.Get(id)
		if rec.deadline.IsZero() || now.Before(rec.deadline) {
			continue
		}
		name := w.couplings[rec.coupling].spec.Name
		key := name + "/" + rec.point.ID
		if w.watchdogKills[key] >= watchdogMaxKills {
			w.tel.Registry().Counter(telemetry.Name("wm.watchdog_exhausted_total", "coupling", name)).Inc()
			// Stop reconsidering it every poll: zero the deadline.
			rec.deadline = time.Time{}
			w.jobs.Put(id, rec)
			continue
		}
		w.watchdogKills[key]++
		w.tel.Registry().Counter(telemetry.Name("wm.watchdog_kills_total", "coupling", name)).Inc()
		overdue = append(overdue, id)
	}
	return overdue
}

// scanPoll is Poll around the oracle sweep.
func scanPoll(w *Workflow) {
	for i := range w.couplings {
		w.pollCoupling(i)
	}
	overdue := scanSweep(w)
	for _, id := range overdue {
		if err := w.cond.Fail(id); err != nil && !errors.Is(err, sched.ErrAlreadyTerminal) {
			w.tel.Registry().Counter("wm.watchdog_kill_errors_total").Inc()
		}
	}
}

// TestWatchdogSweepMatchesSortedScan runs two workflows in lockstep through
// the same random script — start times, durations (some exempt), completions
// and failures between polls, repeated start notices, a backend that refuses
// every fifth kill, a kill budget the script exhausts — one polled by Poll,
// one by the scan oracle. Kill lists, kill budgets, counters and coupling stats must agree
// at every poll.
func TestWatchdogSweepMatchesSortedScan(t *testing.T) {
	counters := []string{
		"wm.watchdog_kills_total{coupling=a}", "wm.watchdog_kills_total{coupling=b}",
		"wm.watchdog_exhausted_total{coupling=a}", "wm.watchdog_exhausted_total{coupling=b}",
		"wm.watchdog_kill_errors_total",
	}
	totals := map[string]int64{}
	for seed := int64(1); seed <= 12; seed++ {
		build := func() *fakeRig {
			var specs []CouplingSpec
			for _, name := range []string{"a", "b"} {
				spec := cgCoupling(dynim.NewFarthestPoint(1, 0), 6, 4)
				spec.Name = name
				spec.SetupDuration = func(rng *rand.Rand) time.Duration {
					return time.Duration(10+rng.Intn(50)) * time.Minute
				}
				spec.SimDuration = func(rng *rand.Rand, p dynim.Point) time.Duration {
					return time.Duration(rng.Intn(5)) * time.Hour // 0 = watchdog-exempt
				}
				specs = append(specs, spec)
			}
			r := newFakeRig(t, Config{Couplings: specs, Seed: seed, WatchdogGrace: 1.2})
			r.be.stubborn = func(id sched.JobID) bool { return id%5 == 0 }
			for i := 0; i < 400; i++ {
				p := dynim.Point{ID: fmt.Sprintf("c%03d", i), Coords: []float64{float64(i)}}
				if err := r.w.AddCandidate([]string{"a", "b"}[i%2], p); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		// script advances one rig by one round. Both rigs get the same
		// seed, so while they agree they see the same script.
		script := func(r *fakeRig, rng *rand.Rand) {
			r.clk.RunFor(time.Duration(5+rng.Intn(40)) * time.Minute)
			r.be.startWhere(func(sched.JobID) bool { return rng.Intn(10) < 7 })
			for id := sched.JobID(1); id <= r.be.next; id++ {
				if !r.be.running[id] {
					continue
				}
				switch x := rng.Intn(100); {
				case x < 8:
					r.be.finish(id, sched.Completed)
				case x < 11:
					r.be.finish(id, sched.Failed)
				case x < 14:
					// A second start notice moves the deadline; the first
					// appointment must lapse unanswered.
					r.be.onStart(id)
				}
			}
		}
		got, want := build(), build()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 300; round++ {
			script(got, gotRng)
			script(want, wantRng)
			got.be.kills, want.be.kills = nil, nil
			got.w.Poll()
			scanPoll(want.w)
			if !reflect.DeepEqual(got.be.kills, want.be.kills) {
				t.Fatalf("seed %d round %d: kills %v, scan oracle %v", seed, round, got.be.kills, want.be.kills)
			}
			if !reflect.DeepEqual(got.w.watchdogKills, want.w.watchdogKills) {
				t.Fatalf("seed %d round %d: kill budgets %v, scan oracle %v", seed, round, got.w.watchdogKills, want.w.watchdogKills)
			}
			for _, name := range counters {
				if g, w := got.tel.Registry().Counter(name).Value(), want.tel.Registry().Counter(name).Value(); g != w {
					t.Fatalf("seed %d round %d: %s = %d, scan oracle %d", seed, round, name, g, w)
				}
			}
			if g, w := got.w.Stats(), want.w.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d round %d: stats %+v, scan oracle %+v", seed, round, g, w)
			}
		}
		for _, name := range counters {
			totals[name] += got.tel.Registry().Counter(name).Value()
		}
	}
	// The script must have reached every branch it claims to.
	for _, name := range counters {
		if totals[name] == 0 {
			t.Errorf("%s never counted: the script does not reach that path", name)
		}
	}
}

// TestReadyDequeMatchesSliceModel drives the ready deque and a plain slice —
// the buffer as it was, prepend-by-copy included — through the same random
// launch / setup-done / sim-failed / submit-failed sequence, across one
// checkpoint → RestoreCoupling round trip: same order, same checkpoint
// bytes, and no vacated slot left holding a point.
func TestReadyDequeMatchesSliceModel(t *testing.T) {
	const name = "continuum-to-cg"
	newWM := func() *Workflow {
		r := newRig(t, 1)
		w, err := New(Config{Clock: r.clk, Conductor: r.cond,
			Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWM()
		ready := &w.couplings[0].ready
		var model []dynim.Point
		next := 0
		churn := func(ops int) {
			for ; ops > 0; ops-- {
				p := dynim.Point{ID: fmt.Sprintf("p%04d", next), Coords: []float64{float64(next)}}
				next++
				switch op := rng.Intn(7); {
				case op < 3: // launch
					if len(model) == 0 {
						continue
					}
					if got := ready.PopFront(); got.ID != model[0].ID {
						t.Fatalf("seed %d: launched %s, model %s", seed, got.ID, model[0].ID)
					}
					model = model[1:]
				case op < 5: // setup done, or a failed sim submission
					ready.PushBack(p)
					model = append(model, p)
				default: // sim failed: back to the front
					ready.PushFront(p)
					model = append([]dynim.Point{p}, model...)
				}
				if ready.Len() != len(model) {
					t.Fatalf("seed %d: %d ready, model %d", seed, ready.Len(), len(model))
				}
			}
		}
		churn(200 + rng.Intn(200))

		ck, err := w.CheckpointCoupling(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeCheckpoint(CouplingCheckpoint{Name: name, Ready: append([]dynim.Point(nil), model...)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: checkpoint\n%s\nslice model\n%s", seed, got, want)
		}
		cks, err := DecodeCheckpoint(got)
		if err != nil {
			t.Fatal(err)
		}
		// Resumed simulations restore ahead of the ready configurations.
		cks[0].RunningSims = []dynim.Point{{ID: "run0", Coords: []float64{-1}}, {ID: "run1", Coords: []float64{-2}}}
		w = newWM()
		if err := w.RestoreCoupling(cks[0]); err != nil {
			t.Fatal(err)
		}
		ready = &w.couplings[0].ready
		model = append(append([]dynim.Point(nil), cks[0].RunningSims...), cks[0].Ready...)
		churn(200)

		if got := ready.AppendTo(nil); !reflect.DeepEqual(got, append([]dynim.Point(nil), model...)) {
			t.Fatalf("seed %d: ready order %v, model %v", seed, got, model)
		}
		// The ring's fields are sched's own: count the backing array's
		// non-zero slots through reflection.
		buf, held := reflect.ValueOf(ready).Elem().FieldByName("buf"), 0
		for i := 0; i < buf.Len(); i++ {
			if !buf.Index(i).IsZero() {
				held++
			}
		}
		if held != ready.Len() {
			t.Fatalf("seed %d: %d slots hold a point, %d are live: a vacated slot still pins one", seed, held, ready.Len())
		}
	}
}

// TestFailedSubmissionRejoinsAtBack: a simulation the backend refuses to
// accept goes to the back of the ready buffer, behind what was already
// prepared (a failed simulation goes to the front:
// TestSimFailureCostIgnoresReadyBuffer).
func TestFailedSubmissionRejoinsAtBack(t *testing.T) {
	spec := cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 0)
	var started []string
	spec.OnSimStart = func(p dynim.Point, _ sched.JobID) { started = append(started, p.ID) }
	r := newFakeRig(t, Config{Couplings: []CouplingSpec{spec}})
	ck := CouplingCheckpoint{Name: spec.Name}
	for _, id := range []string{"p0", "p1", "p2"} {
		ck.Ready = append(ck.Ready, dynim.Point{ID: id, Coords: []float64{0}})
	}
	if err := r.w.RestoreCoupling(ck); err != nil {
		t.Fatal(err)
	}
	r.be.refuse = 1
	for i := 0; i < 4; i++ { // p0 refused; then p1, p2, p0 run to completion
		r.w.Poll()
		r.clk.RunFor(time.Second)
		if r.be.startWhere(func(sched.JobID) bool { return true }) == 1 {
			r.be.finish(r.be.next, sched.Completed)
		}
	}
	if want := []string{"p1", "p2", "p0"}; !reflect.DeepEqual(started, want) {
		t.Errorf("launch order %v, want %v", started, want)
	}
}

// allocRounds is how many rounds allocBytesPerCall runs.
const allocRounds = 3

// allocBytesPerCall reports the heap bytes one call of f allocates: the
// least, over allocRounds rounds of calls calls each, of a round's average.
// TotalAlloc counts every goroutine's allocations, so a stray runtime
// allocation can land in one round; the least round is f's own cost. Bytes,
// not allocation counts: a scan or a copy allocates a constant number of
// objects whose sizes grow with the live state.
func allocBytesPerCall(calls int, f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range allocRounds {
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(calls))
	}
	return least
}

// loadedRig builds a workflow with ready prepared configurations restored,
// launches up to maxSims of them and starts the jobs.
func loadedRig(t *testing.T, maxSims, ready int) *fakeRig {
	t.Helper()
	spec := cgCoupling(dynim.NewFarthestPoint(1, 0), maxSims, 0)
	var r *fakeRig
	spec.OnSimStart = func(p dynim.Point, _ sched.JobID) { r.lastSim = p.ID }
	r = newFakeRig(t, Config{Couplings: []CouplingSpec{spec}, WatchdogGrace: 1.5})
	ck := CouplingCheckpoint{Name: "continuum-to-cg"}
	for i := 0; i < ready; i++ {
		ck.Ready = append(ck.Ready, dynim.Point{ID: fmt.Sprintf("p%05d", i), Coords: []float64{float64(i)}})
	}
	if err := r.w.RestoreCoupling(ck); err != nil {
		t.Fatal(err)
	}
	r.w.Poll()
	r.clk.RunFor(time.Second)
	if n := r.be.startWhere(func(sched.JobID) bool { return true }); n != min(maxSims, ready) {
		t.Fatalf("%d jobs started, want %d", n, min(maxSims, ready))
	}
	return r
}

// TestIdlePollCostIgnoresTrackedJobs: a poll with nothing due and nothing to
// launch costs the same bytes with 500 and with 5,000 tracked running jobs.
func TestIdlePollCostIgnoresTrackedJobs(t *testing.T) {
	perPoll := func(jobs int) uint64 {
		r := loadedRig(t, jobs, jobs)
		if st := r.w.Stats()[0]; st.Running != jobs || st.Ready != 0 {
			t.Fatalf("stats %+v, want %d running and none ready", st, jobs)
		}
		return allocBytesPerCall(50, r.w.Poll)
	}
	few, many := perPoll(500), perPoll(5000)
	if many > few+few/4+64 {
		t.Errorf("an idle Poll allocates %d B with 5,000 tracked jobs, %d B with 500: cost follows the live job count", many, few)
	}
}

// TestSimFailureCostIgnoresReadyBuffer: failing one simulation — back to
// the front of the ready buffer, relaunched — costs the same bytes with 10
// and with 5,000 ready configurations.
func TestSimFailureCostIgnoresReadyBuffer(t *testing.T) {
	perFailure := func(ready int) uint64 {
		r := loadedRig(t, 1, ready+1)
		per := allocBytesPerCall(50, func() {
			r.be.finish(r.be.next, sched.Failed)
			r.clk.RunFor(time.Second)
			r.be.startWhere(func(sched.JobID) bool { return true })
		})
		if st := r.w.Stats()[0]; st.FailedSims != allocRounds*50 || st.Running != 1 || st.Ready != ready {
			t.Fatalf("stats %+v, want %d failed, 1 running, %d ready", st, allocRounds*50, ready)
		}
		if r.lastSim != "p00000" {
			t.Fatalf("relaunched %s: a failed simulation re-enters at the front of the buffer", r.lastSim)
		}
		return per
	}
	few, many := perFailure(10), perFailure(5000)
	if many > few+few/4+64 {
		t.Errorf("a failed simulation allocates %d B with 5,000 ready, %d B with 10: cost follows the buffer", many, few)
	}
}

// TestAddCandidateAllocatesNothing counts, not times: with tracing off, an
// offer to a coupling whose counter is resolved allocates nothing — no
// metric name built per offer, no span argument boxed for a span that is
// not recorded.
func TestAddCandidateAllocatesNothing(t *testing.T) {
	spec := cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 0)
	r := newFakeRig(t, Config{Couplings: []CouplingSpec{spec}})
	p := dynim.Point{ID: "p0", Coords: []float64{0}}
	offer := func() {
		if err := r.w.AddCandidate(spec.Name, p); err != nil { // re-offers are ignored, not refused
			t.Fatal(err)
		}
	}
	offer() // the first accepted offer resolves the counter
	if n := testing.AllocsPerRun(100, offer); n != 0 {
		t.Errorf("AddCandidate allocates %v times per offer, want 0", n)
	}
	if got := r.tel.Registry().Counter("wm.candidates_total{coupling=continuum-to-cg}").Value(); got != 102 {
		t.Errorf("wm.candidates_total = %d, want 102 (one first offer, one warm-up, 100 counted)", got)
	}
}

// TestAddCandidateCounterConcurrent interleaves the first offers of several
// producers on a cold coupling, one offer from each in turn: the counter is
// resolved by whichever offer comes first, and every offer lands on that
// one counter.
func TestAddCandidateCounterConcurrent(t *testing.T) {
	spec := cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 0)
	r := newFakeRig(t, Config{Couplings: []CouplingSpec{spec}})
	const offerers, each = 4, 50
	for i := 0; i < each; i++ {
		for g := 0; g < offerers; g++ {
			p := dynim.Point{ID: fmt.Sprintf("g%d-%d", g, i), Coords: []float64{float64(i)}}
			if err := r.w.AddCandidate(spec.Name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r.tel.Registry().Counter("wm.candidates_total{coupling=continuum-to-cg}").Value(); got != offerers*each {
		t.Errorf("wm.candidates_total = %d, want %d", got, offerers*each)
	}
}
