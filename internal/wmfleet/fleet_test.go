package wmfleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/core"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/faults"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

type fleetRig struct {
	clk  *vclock.Virtual
	mach *cluster.Machine
	s    *sched.Scheduler
}

// liveOwner returns the live owner index of a coupling (-1 while orphaned)
// and whether the coupling is managed by fl.
func liveOwner(fl *Fleet, coupling string) (int, bool) {
	o, ok := fl.owner[coupling]
	if !ok {
		return -1, false
	}
	if o >= 0 && !fl.instances[o].alive {
		o = -1
	}
	return o, true
}

func newFleetRig(t *testing.T, nodes int) *fleetRig {
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
	return &fleetRig{clk: clk, mach: m, s: s}
}

func testCoupling(name string, dims, maxSims, readyTarget int, simDur time.Duration) core.CouplingSpec {
	return core.CouplingSpec{
		Name:          name,
		Selector:      dynim.NewFarthestPoint(dims, 0),
		SetupReq:      sched.Request{Name: name + "-setup", Cores: 4},
		SetupDuration: func(rng *rand.Rand) time.Duration { return time.Hour },
		SimReq:        sched.Request{Name: name + "-sim", Cores: 3, GPUs: 1},
		SimDuration:   func(rng *rand.Rand, p dynim.Point) time.Duration { return simDur },
		MaxSims:       maxSims,
		ReadyTarget:   readyTarget,
	}
}

func feedCandidates(t *testing.T, fl *Fleet, coupling string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := fl.AddCandidate(coupling, dynim.Point{
			ID: fmt.Sprintf("%s-p%03d", coupling, i), Coords: []float64{float64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
}

// killCrashJobs mimics the campaign's crash handling: the dead instance's
// tracked jobs die with it (their configurations live on in the flushed
// checkpoints).
func killCrashJobs(t *testing.T, s *sched.Scheduler, info CrashInfo) {
	t.Helper()
	for _, id := range info.Jobs {
		if job, ok := s.Job(id); ok && job.State == sched.Running {
			s.Fail(id)
		} else {
			s.Cancel(id)
		}
	}
}

// TestFleetAdoptionAfterCrash is the tentpole end-to-end: three instances
// over two couplings, instance 0 crashes mid-run, a survivor adopts its
// coupling through the expired store lease, and the campaign finishes with
// every checkpointed selection conserved.
func TestFleetAdoptionAfterCrash(t *testing.T) {
	r := newFleetRig(t, 2) // 12 GPUs
	var anomalies, events []string
	fl, err := New(Config{
		Clock:     r.clk,
		Backend:   maestro.FluxBackend{S: r.s},
		Store:     datastore.NewMemory(),
		Instances: 3,
		Couplings: []core.CouplingSpec{
			testCoupling("cg", 2, 8, 3, 6*time.Hour),
			testCoupling("aa", 2, 4, 2, 3*time.Hour),
		},
		PollEvery: 2 * time.Minute,
		Seed:      7,
		Namespace: "t1",
		OnEvent:   func(msg string) { events = append(events, msg) },
		OnAnomaly: func(msg string) { anomalies = append(anomalies, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedCandidates(t, fl, "cg", 30)
	feedCandidates(t, fl, "aa", 20)
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	if o, _ := liveOwner(fl, "cg"); o != 0 {
		t.Fatalf("cg initially owned by %d, want 0", o)
	}

	// Crash the cg owner mid-pipeline (setups done, sims in flight).
	r.clk.RunFor(3*time.Hour + 5*time.Minute)
	preCrash := fl.Stats()
	info, err := fl.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Couplings) != 1 || info.Couplings[0] != "cg" {
		t.Fatalf("crash orphaned %v, want [cg]", info.Couplings)
	}
	if len(info.Jobs) == 0 {
		t.Fatal("crashed instance tracked no jobs mid-run")
	}
	killCrashJobs(t, r.s, info)
	if o, _ := liveOwner(fl, "cg"); o != -1 {
		t.Fatalf("cg owner = %d right after crash, want -1 (orphaned)", o)
	}

	// The lease expires one TTL after the last renewal; survivors adopt on
	// their next sweep. Run the rest of the day.
	r.clk.RunFor(21 * time.Hour)
	fl.Stop()

	acc := fl.Accounting()
	if acc.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", acc.Crashes)
	}
	if acc.Adoptions != 1 {
		t.Errorf("adoptions = %d, want exactly 1 (double-adoption guard)", acc.Adoptions)
	}
	if acc.LeaseExpirations < 1 {
		t.Errorf("lease expirations = %d, want >= 1", acc.LeaseExpirations)
	}
	if o, _ := liveOwner(fl, "cg"); o != 1 && o != 2 {
		t.Errorf("cg owner after adoption = %d, want a survivor", o)
	}
	for _, a := range anomalies {
		if strings.Contains(a, "lost selections") {
			t.Errorf("conservation violated: %s", a)
		}
	}
	if len(anomalies) != 0 {
		t.Errorf("unexpected anomalies: %v", anomalies)
	}
	adopted := false
	for _, ev := range events {
		if strings.Contains(ev, "wm-adopt coupling=cg") {
			adopted = true
		}
	}
	if !adopted {
		t.Errorf("no wm-adopt event for cg in %v", events)
	}

	// The adopted coupling kept making progress, and the never-crashed
	// instance's coupling ran throughout — which also exercises the
	// dispatcher fanning one backend's callbacks out to every instance.
	post := fl.Stats()
	if post[0].CompletedSims <= preCrash[0].CompletedSims {
		t.Errorf("cg stalled after adoption: %d -> %d completed",
			preCrash[0].CompletedSims, post[0].CompletedSims)
	}
	if post[1].CompletedSims == 0 {
		t.Errorf("aa completed no sims: %+v", post[1])
	}
}

// TestFleetCheckpointAcrossFleetSizes pins the compatibility contract: a
// fleet checkpoint is the single-WM format, so the next allocation can
// restore it at any fleet size.
func TestFleetCheckpointAcrossFleetSizes(t *testing.T) {
	couplings := func() []core.CouplingSpec {
		return []core.CouplingSpec{
			testCoupling("cg", 2, 8, 3, 6*time.Hour),
			testCoupling("aa", 2, 4, 2, 3*time.Hour),
		}
	}
	r1 := newFleetRig(t, 2)
	fl1, err := New(Config{
		Clock: r1.clk, Backend: maestro.FluxBackend{S: r1.s},
		Store: datastore.NewMemory(), Instances: 3,
		Couplings: couplings(), PollEvery: 2 * time.Minute, Seed: 7, Namespace: "a1",
	})
	if err != nil {
		t.Fatal(err)
	}
	feedCandidates(t, fl1, "cg", 30)
	feedCandidates(t, fl1, "aa", 20)
	if err := fl1.Start(); err != nil {
		t.Fatal(err)
	}
	r1.clk.RunFor(12 * time.Hour)
	fl1.Stop()
	ck, err := fl1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := core.DecodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].Name != "cg" || parts[1].Name != "aa" {
		t.Fatalf("checkpoint couplings = %+v, want cg then aa", parts)
	}
	done1 := fl1.Stats()[0].CompletedSims

	r2 := newFleetRig(t, 2)
	fl2, err := New(Config{
		Clock: r2.clk, Backend: maestro.FluxBackend{S: r2.s},
		Store: datastore.NewMemory(), Instances: 2,
		Couplings: couplings(), PollEvery: 2 * time.Minute, Seed: 8, Namespace: "a2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	feedCandidates(t, fl2, "cg", 10)
	if err := fl2.Start(); err != nil {
		t.Fatal(err)
	}
	r2.clk.RunFor(24 * time.Hour)
	fl2.Stop()
	if done2 := fl2.Stats()[0].CompletedSims; done2 <= done1 {
		t.Errorf("restored fleet lost progress: %d completed before, %d after", done1, done2)
	}
}

// TestFleetAdoptionUnderStoreFaultBurst runs the crash/adopt cycle with
// the lease and checkpoint traffic routed through the armored store while
// the fault engine injects transient errors — the exact layering the chaos
// campaign wires. Adoption must still happen and conserve selections; the
// armor and the in-memory checkpoint fallback absorb the burst.
func TestFleetAdoptionUnderStoreFaultBurst(t *testing.T) {
	r := newFleetRig(t, 2)
	plan := &faults.Plan{Seed: 23, Rules: []faults.Rule{
		{Class: faults.StoreTransient, Rate: 0.5},
	}}
	eng := faults.NewEngine(r.clk, nil, plan)
	eng.Start()
	store := datastore.Armor(faults.WrapStore(datastore.NewMemory(), eng),
		telemetry.Nop(), "memory", datastore.ArmorOptions{})
	var anomalies []string
	fl, err := New(Config{
		Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
		Store: store, Instances: 2,
		Couplings: []core.CouplingSpec{testCoupling("cg", 2, 8, 3, 6*time.Hour)},
		PollEvery: 2 * time.Minute,
		Seed:      7,
		Namespace: "b1",
		OnAnomaly: func(msg string) { anomalies = append(anomalies, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedCandidates(t, fl, "cg", 30)
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(3*time.Hour + 5*time.Minute)
	info, err := fl.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	killCrashJobs(t, r.s, info)
	r.clk.RunFor(21 * time.Hour)
	fl.Stop()

	if acc := fl.Accounting(); acc.Adoptions != 1 {
		t.Errorf("adoptions = %d, want 1", acc.Adoptions)
	}
	for _, a := range anomalies {
		// Renew/flush failures past the armor's budget are survivable and
		// expected under a 50% burst; losing a selection is not.
		if strings.Contains(a, "lost selections") {
			t.Errorf("conservation violated under burst: %s", a)
		}
	}
	if st := fl.Stats()[0]; st.CompletedSims == 0 {
		t.Errorf("no sims completed under burst: %+v", st)
	}
}

// ckptGetStore counts reads of the fleet's checkpoint namespace and, when
// fail is set, refuses them — the lost-record case adoption answers from the
// in-memory mirror. Lease traffic passes through.
type ckptGetStore struct {
	datastore.Store
	fail bool
	gets int
}

func (s *ckptGetStore) Get(ns, key string) ([]byte, error) {
	if strings.HasSuffix(ns, "-ckpt") {
		s.gets++
		if s.fail {
			return nil, errors.New("injected permanent error")
		}
	}
	return s.Store.Get(ns, key)
}

// TestFleetAdoptsSameStateFromStoreAndMirror: the store record and the
// in-memory mirror are two copies of one record, so adopting from either
// leaves the adopter with the same coupling stats and the same queues in
// the same order — and either way adoption reads the store exactly once.
func TestFleetAdoptsSameStateFromStoreAndMirror(t *testing.T) {
	adopt := func(failGet bool) ([]core.CouplingStats, core.CouplingCheckpoint) {
		r := newFleetRig(t, 2)
		store := &ckptGetStore{Store: datastore.NewMemory(), fail: failGet}
		var anomalies []string
		fl, err := New(Config{
			Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
			Store: store, Instances: 2,
			Couplings: []core.CouplingSpec{testCoupling("cg", 2, 8, 3, 6*time.Hour)},
			PollEvery: 2 * time.Minute,
			Seed:      7,
			Namespace: "m1",
			OnAnomaly: func(msg string) { anomalies = append(anomalies, msg) },
		})
		if err != nil {
			t.Fatal(err)
		}
		feedCandidates(t, fl, "cg", 30)
		if err := fl.Start(); err != nil {
			t.Fatal(err)
		}
		r.clk.RunFor(3*time.Hour + 5*time.Minute)
		info, err := fl.Crash(0)
		if err != nil {
			t.Fatal(err)
		}
		killCrashJobs(t, r.s, info)
		r.clk.RunFor(45 * time.Minute) // past the dead owner's lease
		fl.Stop()
		if acc := fl.Accounting(); acc.Adoptions != 1 {
			t.Fatalf("failGet=%v: adoptions = %d, want 1", failGet, acc.Adoptions)
		}
		if store.gets != 1 {
			t.Errorf("failGet=%v: adoption read the checkpoint namespace %d times, want 1", failGet, store.gets)
		}
		if len(anomalies) != 0 {
			t.Errorf("failGet=%v: anomalies %q", failGet, anomalies)
		}
		ck, err := fl.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		parts, err := core.DecodeCheckpoint(ck)
		if err != nil || len(parts) != 1 {
			t.Fatalf("failGet=%v: checkpoint = %+v, %v", failGet, parts, err)
		}
		return fl.Stats(), parts[0]
	}
	fromStore, ckStore := adopt(false)
	fromMirror, ckMirror := adopt(true)
	if !reflect.DeepEqual(fromStore, fromMirror) {
		t.Errorf("stats differ:\nstore  %+v\nmirror %+v", fromStore, fromMirror)
	}
	if !reflect.DeepEqual(ckStore, ckMirror) {
		t.Errorf("queues differ:\nstore  %+v\nmirror %+v", ckStore, ckMirror)
	}
	if ckStore.Selections() == 0 {
		t.Errorf("nothing was in flight to adopt: %+v", ckStore)
	}
}

// returns runs fn on its own goroutine and fails the test if it is still
// running after ten seconds, so a fleet call that never comes back — a
// refusal or sweep path that re-enters itself or loops — is a named
// failure rather than the suite's timeout.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within ten seconds", what)
	}
}

// TestFleetRefusesLastInstanceCrash: a fleet of zero cannot finish the
// campaign, so the last live instance will not crash — and that refusal,
// like the one for an index the fleet does not have, leaves the fleet
// answering afterwards.
func TestFleetRefusesLastInstanceCrash(t *testing.T) {
	r := newFleetRig(t, 1)
	fl, err := New(Config{
		Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
		Store: datastore.NewMemory(), Instances: 1,
		Couplings: []core.CouplingSpec{testCoupling("cg", 2, 4, 2, 6*time.Hour)},
		Namespace: "solo",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, len(fl.instances), 0} {
		if _, err := fl.Crash(idx); err == nil {
			t.Fatalf("Crash(%d) of a one-instance fleet succeeded", idx)
		}
		returns(t, fmt.Sprintf("Alive(0) after the refused Crash(%d)", idx), func() {
			if !fl.Alive(0) {
				t.Errorf("refused Crash(%d) still killed the instance", idx)
			}
		})
	}
	fl.Stop() // not deferred: a Stop that hangs after a failure above would hide it
}

// leaseGetStore refuses the next read of one coupling's lease record.
type leaseGetStore struct {
	datastore.Store
	failOnce string
}

func (s *leaseGetStore) Get(ns, key string) ([]byte, error) {
	if strings.HasSuffix(ns, "-lease") && key == s.failOnce {
		s.failOnce = ""
		return nil, errors.New("injected permanent error")
	}
	return s.Store.Get(ns, key)
}

// TestFleetSweepSurvivesLeaseReadFailure: a sweep that cannot read one
// orphan's lease reports that once, carries on to the next orphan, and
// returns; the skipped coupling is adopted on the next sweep.
func TestFleetSweepSurvivesLeaseReadFailure(t *testing.T) {
	r := newFleetRig(t, 2)
	store := &leaseGetStore{Store: datastore.NewMemory()}
	var anomalies []string
	fl, err := New(Config{
		Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
		Store: store, Instances: 2,
		Couplings: []core.CouplingSpec{ // instance 0 owns c0 and c2
			testCoupling("c0", 2, 4, 2, 6*time.Hour),
			testCoupling("c1", 2, 4, 2, 6*time.Hour),
			testCoupling("c2", 2, 4, 2, 6*time.Hour),
		},
		PollEvery: 2 * time.Minute,
		Namespace: "sw",
		OnAnomaly: func(msg string) { anomalies = append(anomalies, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	owners := func() (out [3]int) {
		for i, name := range []string{"c0", "c1", "c2"} {
			out[i], _ = liveOwner(fl, name)
		}
		return out
	}

	// The tickers fire every renewEvery (3m20s). Instance 0 renews at
	// 1h03m20s and dies at 1h05: its leases run one leaseTTL to 1h13m20s,
	// and the survivor's sweeps at 1h06m40s and 1h10m must leave them
	// alone.
	r.clk.RunFor(time.Hour + 5*time.Minute)
	if _, err := fl.Crash(0); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(8 * time.Minute)
	if got := owners(); got != [3]int{-1, 1, -1} || len(anomalies) != 0 {
		t.Fatalf("before expiry: owners %v anomalies %q, want [-1 1 -1] and none", got, anomalies)
	}

	store.failOnce = "c0"
	returns(t, "the 1h13m20s sweep", func() { r.clk.RunFor(time.Minute) })
	if len(anomalies) != 1 || !strings.Contains(anomalies[0], "lease check for c0 failed") {
		t.Fatalf("anomalies = %q, want the one failed lease check", anomalies)
	}
	returns(t, "Stats after the failed lease check", func() {
		if n := len(fl.Stats()); n != 3 {
			t.Errorf("Stats reports %d couplings, want 3", n)
		}
	})
	if got := owners(); got != [3]int{-1, 1, 1} {
		t.Fatalf("after the failed check: owners %v, want [-1 1 1] (c2 adopted past the failure)", got)
	}

	r.clk.RunFor(renewEvery)
	if got := owners(); got != [3]int{1, 1, 1} || len(anomalies) != 1 {
		t.Errorf("one sweep later: owners %v anomalies %q, want all adopted and no new report", got, anomalies)
	}
	fl.Stop() // not deferred, as above
}

// TestFleetCandidateDuringOrphanWindow: candidates arriving between a
// crash and the adoption go straight to the coupling's shared selector —
// nothing is dropped while ownership is in flight.
func TestFleetCandidateDuringOrphanWindow(t *testing.T) {
	r := newFleetRig(t, 2)
	fl, err := New(Config{
		Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
		Store: datastore.NewMemory(), Instances: 2,
		Couplings: []core.CouplingSpec{testCoupling("cg", 2, 8, 3, 6*time.Hour)},
		PollEvery: 2 * time.Minute,
		Seed:      7,
		Namespace: "w1",
	})
	if err != nil {
		t.Fatal(err)
	}
	feedCandidates(t, fl, "cg", 5)
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(2 * time.Hour)
	info, err := fl.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	killCrashJobs(t, r.s, info)

	// Owner dead, lease not yet expired: the orphan window.
	if err := fl.AddCandidate("cg", dynim.Point{ID: "late", Coords: []float64{99, 0}}); err != nil {
		t.Fatalf("candidate rejected during orphan window: %v", err)
	}
	if st := fl.Stats()[0]; st.Candidates == 0 {
		t.Errorf("orphaned coupling reports no candidates: %+v", st)
	}
	if err := fl.AddCandidate("nope", dynim.Point{ID: "x"}); err == nil {
		t.Error("unknown coupling accepted a candidate")
	}

	r.clk.RunFor(22 * time.Hour)
	fl.Stop()
	if acc := fl.Accounting(); acc.Adoptions != 1 {
		t.Errorf("adoptions = %d, want 1", acc.Adoptions)
	}
	if st := fl.Stats()[0]; st.CompletedSims == 0 {
		t.Errorf("no sims completed after window: %+v", st)
	}
}

// failFirstStore fails its first Get or its first Put with a permanent
// error — the one store failure a lease acquire can meet that the armor
// does not retry.
type failFirstStore struct {
	datastore.Store
	failGet, failPut bool
}

func (s *failFirstStore) Get(ns, key string) ([]byte, error) {
	if s.failGet {
		s.failGet = false
		return nil, errors.New("injected permanent error")
	}
	return s.Store.Get(ns, key)
}

func (s *failFirstStore) Put(ns, key string, data []byte) error {
	if s.failPut {
		s.failPut = false
		return errors.New("injected permanent error")
	}
	return s.Store.Put(ns, key, data)
}

// TestFleetStartSurvivesLeaseStoreFailure: a store error on the initial
// lease acquire is an anomaly, not the end of the campaign — the owner keeps
// its coupling in-process and its first renew tick writes the lease.
func TestFleetStartSurvivesLeaseStoreFailure(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store *failFirstStore
	}{
		{"get", &failFirstStore{Store: datastore.NewMemory(), failGet: true}},
		{"put", &failFirstStore{Store: datastore.NewMemory(), failPut: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFleetRig(t, 2)
			var anomalies []string
			fl, err := New(Config{
				Clock: r.clk, Backend: maestro.FluxBackend{S: r.s},
				Store: tc.store, Instances: 2,
				Couplings: []core.CouplingSpec{testCoupling("cg", 2, 8, 3, 6*time.Hour)},
				PollEvery: 2 * time.Minute,
				Namespace: "s1",
				OnAnomaly: func(msg string) { anomalies = append(anomalies, msg) },
			})
			if err != nil {
				t.Fatal(err)
			}
			feedCandidates(t, fl, "cg", 30)
			if err := fl.Start(); err != nil {
				t.Fatalf("Start aborted on a lease store failure: %v", err)
			}
			defer fl.Stop()
			if len(anomalies) != 1 || !strings.Contains(anomalies[0], "initial lease for cg failed") {
				t.Fatalf("anomalies = %q, want the one lease failure", anomalies)
			}
			if o, _ := liveOwner(fl, "cg"); o != 0 {
				t.Fatalf("cg owned by %d after the failed acquire, want 0", o)
			}
			if _, found, _ := fl.leases.Load("cg"); found {
				t.Fatal("a lease record exists although the acquire failed")
			}
			r.clk.RunFor(10 * time.Minute) // the first renew tick
			rec, found, err := fl.leases.Load("cg")
			if err != nil || !found || rec.Holder != 0 || rec.Term != 1 {
				t.Fatalf("lease after the first renew tick = %+v found=%v err=%v, want holder 0 term 1", rec, found, err)
			}
			r.clk.RunFor(8 * time.Hour)
			if st := fl.Stats()[0]; st.CompletedSims == 0 {
				t.Errorf("no sims completed: %+v", st)
			}
			if len(anomalies) != 1 {
				t.Errorf("later anomalies: %q", anomalies[1:])
			}
		})
	}
}
