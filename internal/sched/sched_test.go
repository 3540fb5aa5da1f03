package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

func newSched(t *testing.T, nodes int, policy Policy, mode Mode) (*vclock.Virtual, *Scheduler) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	m, err := cluster.New(cluster.Summit(nodes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(clk, Config{Machine: m, Policy: policy, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return clk, s
}

func gpuJob(d time.Duration) Request {
	return Request{Name: "cg-sim", Cores: 3, GPUs: 1, Duration: d}
}

func TestSubmitRunComplete(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	var started, finished []JobID
	s.OnStart(func(j *Job) { started = append(started, j.ID) })
	s.OnFinish(func(j *Job) { finished = append(finished, j.ID) })
	job, err := s.Submit(gpuJob(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Minute)
	if got, _ := s.Job(job.ID); got.State != Running {
		t.Fatalf("state after load = %v", got.State)
	}
	if s.Machine().UsedGPUs() != 1 {
		t.Error("GPU not reserved")
	}
	clk.RunFor(2 * time.Hour)
	got, _ := s.Job(job.ID)
	if got.State != Completed {
		t.Fatalf("state after duration = %v", got.State)
	}
	if got.EndTime.Sub(got.StartTime) != time.Hour {
		t.Errorf("ran for %v, want 1h", got.EndTime.Sub(got.StartTime))
	}
	if s.Machine().UsedGPUs() != 0 {
		t.Error("GPU not released")
	}
	if len(started) != 1 || len(finished) != 1 {
		t.Errorf("callbacks: started=%v finished=%v", started, finished)
	}
}

func TestValidateRequests(t *testing.T) {
	_, s := newSched(t, 2, FirstMatch, Async)
	bad := []Request{
		{Name: "none"},                         // no resources
		{Name: "fat", Cores: 99},               // exceeds node cores
		{Name: "fatg", GPUs: 7},                // exceeds node gpus
		{Name: "wide", Cores: 1, NodeCount: 3}, // exceeds machine
	}
	for _, r := range bad {
		if _, err := s.Submit(r); err == nil {
			t.Errorf("request %+v accepted", r)
		}
	}
}

func TestFCFSNoBackfill(t *testing.T) {
	// Head-of-line job needs 2 nodes; only 1 is free. A small job behind it
	// must NOT jump the queue (throughput-oriented FCFS w/o backfilling).
	clk, s := newSched(t, 2, FirstMatch, Async)
	hog, _ := s.Submit(Request{Name: "hog", Cores: 44, GPUs: 0, NodeCount: 1, Duration: 10 * time.Hour})
	clk.RunFor(time.Minute)
	if j, _ := s.Job(hog.ID); j.State != Running {
		t.Fatal("hog not running")
	}
	big, _ := s.Submit(Request{Name: "big", Cores: 44, NodeCount: 2, Duration: time.Hour})
	small, _ := s.Submit(gpuJob(time.Hour))
	clk.RunFor(time.Hour)
	if j, _ := s.Job(big.ID); j.State != Pending {
		t.Errorf("big = %v, want pending", j.State)
	}
	if j, _ := s.Job(small.ID); j.State != Pending {
		t.Errorf("small = %v, want pending (no backfill)", j.State)
	}
	// When the hog finishes, big then small run.
	clk.RunFor(10 * time.Hour)
	if j, _ := s.Job(big.ID); j.State == Pending {
		t.Error("big never started after release")
	}
}

func TestExhaustiveVisitsWholeGraph(t *testing.T) {
	_, sEx := newSched(t, 50, LowIDExhaustive, Async)
	clkEx := vclock.NewVirtual(epoch)
	m, _ := cluster.New(cluster.Summit(50))
	sEx, _ = New(clkEx, Config{Machine: m, Policy: LowIDExhaustive, Mode: Async})
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if _, err := sEx.Submit(gpuJob(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	clkEx.RunFor(30 * time.Minute)
	wantPerJob := int64(50 * cluster.Summit(50).VerticesPerNode())
	if got := sEx.MatcherVisits(); got != jobs*wantPerJob {
		t.Errorf("exhaustive visits = %d, want %d", got, jobs*wantPerJob)
	}
}

func TestFirstMatchVisitsFar_Fewer(t *testing.T) {
	clk, s := newSched(t, 50, FirstMatch, Async)
	const jobs = 20
	for i := 0; i < jobs; i++ {
		s.Submit(gpuJob(time.Hour))
	}
	clk.RunFor(30 * time.Minute)
	exhaustive := int64(jobs * 50 * cluster.Summit(50).VerticesPerNode())
	got := s.MatcherVisits()
	if got >= exhaustive/10 {
		t.Errorf("first-match visits = %d, not far below exhaustive %d", got, exhaustive)
	}
	_, running, _ := s.Counts()
	if running != jobs {
		t.Errorf("running = %d", running)
	}
}

func TestFirstMatchPacksLowNodesFirst(t *testing.T) {
	clk, s := newSched(t, 4, FirstMatch, Async)
	for i := 0; i < 6; i++ {
		s.Submit(gpuJob(time.Hour))
	}
	clk.RunFor(time.Minute)
	// 6 GPUs fit on node 0; nodes 1-3 must be untouched.
	if s.Machine().Node(0).FreeGPUs() != 0 {
		t.Errorf("node 0 free GPUs = %d", s.Machine().Node(0).FreeGPUs())
	}
	for n := 1; n < 4; n++ {
		if s.Machine().Node(n).FreeGPUs() != 6 {
			t.Errorf("node %d touched", n)
		}
	}
}

func TestFirstMatchCursorRewindsOnRelease(t *testing.T) {
	clk, s := newSched(t, 2, FirstMatch, Async)
	// Fill both nodes (12 GPU jobs), then free one job on node 0 and submit
	// another: it must land on node 0 again despite the advanced cursor.
	var first *Job
	for i := 0; i < 12; i++ {
		j, _ := s.Submit(gpuJob(0))
		if i == 0 {
			first = j
		}
	}
	clk.RunFor(time.Minute)
	if s.Machine().UsedGPUs() != 12 {
		t.Fatalf("UsedGPUs = %d", s.Machine().UsedGPUs())
	}
	if err := s.Complete(first.ID); err != nil {
		t.Fatal(err)
	}
	next, _ := s.Submit(gpuJob(0))
	clk.RunFor(time.Minute)
	j, _ := s.Job(next.ID)
	if j.State != Running {
		t.Fatalf("replacement job = %v", j.State)
	}
	if len(j.Alloc.Parts) != 1 || j.Alloc.Parts[0].Node != 0 {
		t.Errorf("replacement landed on node %d, want 0", j.Alloc.Parts[0].Node)
	}
}

func TestMultiNodeContinuumJob(t *testing.T) {
	// The continuum job: 150 nodes × 24 cores, no GPUs (§4.1, §5.2).
	clk, s := newSched(t, 160, FirstMatch, Async)
	j, err := s.Submit(Request{Name: "continuum", NodeCount: 150, Cores: 24, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Hour)
	got, _ := s.Job(j.ID)
	if got.State != Running {
		t.Fatalf("continuum = %v", got.State)
	}
	if len(got.Alloc.Parts) != 150 {
		t.Errorf("alloc spans %d nodes", len(got.Alloc.Parts))
	}
	if s.Machine().UsedCores() != 150*24 {
		t.Errorf("UsedCores = %d", s.Machine().UsedCores())
	}
}

func TestCancelPending(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	// Fill the node so later jobs stay pending.
	for i := 0; i < 6; i++ {
		s.Submit(gpuJob(time.Hour))
	}
	victim, _ := s.Submit(gpuJob(time.Hour))
	clk.RunFor(time.Minute)
	if !s.Cancel(victim.ID) {
		t.Fatal("Cancel of pending job failed")
	}
	if s.Cancel(victim.ID) {
		t.Error("double Cancel succeeded")
	}
	j, _ := s.Job(victim.ID)
	if j.State != Canceled {
		t.Errorf("state = %v", j.State)
	}
	// Canceled job must never run.
	clk.RunFor(3 * time.Hour)
	if j, _ := s.Job(victim.ID); j.State != Canceled {
		t.Errorf("canceled job reached %v", j.State)
	}
	if s.Cancel(JobID(9999)) {
		t.Error("Cancel of unknown job succeeded")
	}
}

func TestFailAndResubmit(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	j, _ := s.Submit(gpuJob(0))
	clk.RunFor(time.Minute)
	if err := s.Fail(j.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Job(j.ID)
	if got.State != Failed {
		t.Errorf("state = %v", got.State)
	}
	if s.Machine().UsedGPUs() != 0 {
		t.Error("failed job leaked GPU")
	}
	// The tracker's resubmission path: a fresh job takes its place.
	j2, _ := s.Submit(gpuJob(0))
	clk.RunFor(time.Minute)
	if got, _ := s.Job(j2.ID); got.State != Running {
		t.Errorf("resubmitted job = %v", got.State)
	}
}

// TestOnFinishMayCallBack holds the re-entrancy convention the workflow
// manager is built on (DESIGN.md §6): the OnFinish callback runs after the
// scheduler's state is updated, so it may call back into the scheduler —
// for every way a job can finish — and see the finished job counted. No
// analyzer sees this edge (it runs through a func value), so a finish path
// that calls back too early miscounts here, and one that guards itself
// against re-entry hangs here, and nowhere else.
func TestOnFinishMayCallBack(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	var finished []int
	s.OnFinish(func(*Job) {
		_, _, n := s.Counts()
		finished = append(finished, n)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var running [2]*Job
		for i := range running {
			running[i], _ = s.Submit(gpuJob(0))
		}
		for i := 0; i < 4; i++ { // fill the node so the next job stays pending
			s.Submit(gpuJob(0))
		}
		pending, _ := s.Submit(gpuJob(0))
		clk.RunFor(time.Minute)
		if !s.Cancel(pending.ID) {
			t.Error("Cancel of the pending job failed")
		}
		if err := s.Complete(running[0].ID); err != nil {
			t.Error(err)
		}
		if err := s.Fail(running[1].ID); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a finish path never returned: the OnFinish callback's call back into the scheduler did not return")
	}
	if want := []int{0, 1, 2}; fmt.Sprint(finished) != fmt.Sprint(want) {
		t.Errorf("finished counts seen by the callback = %v, want %v (Cancel, Complete, Fail)", finished, want)
	}
}

func TestCompleteErrors(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	if err := s.Complete(JobID(42)); err == nil {
		t.Error("Complete of unknown job succeeded")
	}
	j, _ := s.Submit(gpuJob(0))
	if err := s.Complete(j.ID); err == nil {
		t.Error("Complete of pending job succeeded")
	}
	clk.RunFor(time.Minute)
	if err := s.Complete(j.ID); err != nil {
		t.Fatal(err)
	}
	// A second finish of an already-terminal job reports the typed
	// ErrAlreadyTerminal so callers can distinguish the benign
	// auto-complete race from real errors.
	if err := s.Complete(j.ID); !errors.Is(err, ErrAlreadyTerminal) {
		t.Errorf("second Complete = %v, want ErrAlreadyTerminal", err)
	}
	if err := s.Fail(j.ID); !errors.Is(err, ErrAlreadyTerminal) {
		t.Errorf("Fail after Complete = %v, want ErrAlreadyTerminal", err)
	}
}

func TestDrainBlocksPlacement(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	s.Drain(0)
	j, _ := s.Submit(gpuJob(time.Hour))
	clk.RunFor(time.Hour)
	if got, _ := s.Job(j.ID); got.State != Pending {
		t.Fatalf("job on drained machine = %v", got.State)
	}
	s.Undrain(0)
	clk.RunFor(time.Hour)
	if got, _ := s.Job(j.ID); got.State != Running && got.State != Completed {
		t.Errorf("job after undrain = %v", got.State)
	}
}

func TestSyncSlowerThanAsyncUnderLoad(t *testing.T) {
	// The Fig. 6 contrast in miniature: same machine, same submission
	// stream; sync+exhaustive must take longer to place all jobs than
	// async+first-match.
	run := func(policy Policy, mode Mode) time.Duration {
		clk := vclock.NewVirtual(epoch)
		m, _ := cluster.New(cluster.Summit(40))
		s, _ := New(clk, Config{Machine: m, Policy: policy, Mode: mode,
			StatusPollEvery: 10 * time.Minute})
		const jobs = 240 // machine holds exactly 240 GPU jobs
		for i := 0; i < jobs; i++ {
			s.Submit(gpuJob(0))
		}
		for i := 0; i < 10000; i++ {
			_, running, _ := s.Counts()
			if running == jobs {
				break
			}
			clk.RunFor(time.Minute)
		}
		tl := s.Timeline()
		if len(tl) != jobs {
			return 1 << 62 // failed to load: treat as infinitely slow
		}
		return tl[len(tl)-1].Time.Sub(epoch)
	}
	slow := run(LowIDExhaustive, Sync)
	fast := run(FirstMatch, Async)
	if slow <= fast {
		t.Errorf("sync+exhaustive loaded in %v, async+first-match in %v", slow, fast)
	}
}

func TestCountsAndTimeline(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	for i := 0; i < 8; i++ { // 6 fit, 2 queue
		s.Submit(gpuJob(0))
	}
	clk.RunFor(time.Minute)
	q, running, finished := s.Counts()
	if q != 2 || running != 6 || finished != 0 {
		t.Errorf("counts = %d/%d/%d", q, running, finished)
	}
	tl := s.Timeline()
	if len(tl) != 6 {
		t.Errorf("timeline = %d placements", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Time.Before(tl[i-1].Time) {
			t.Error("timeline out of order")
		}
	}
}

func TestClosedSchedulerRejectsSubmit(t *testing.T) {
	_, s := newSched(t, 1, FirstMatch, Async)
	s.Close()
	if _, err := s.Submit(gpuJob(0)); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

func TestPropertyNoOvercommitAndFullPlacement(t *testing.T) {
	// Any random mix of short jobs on a small machine: resources are never
	// overcommitted, and with enough virtual time every job completes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewVirtual(epoch)
		m, _ := cluster.New(cluster.Summit(2))
		policy := Policy(rng.Intn(2))
		mode := Mode(rng.Intn(2))
		s, _ := New(clk, Config{Machine: m, Policy: policy, Mode: mode})
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			req := Request{
				Name:     fmt.Sprintf("j%d", i),
				Cores:    1 + rng.Intn(4),
				GPUs:     rng.Intn(2),
				Duration: time.Duration(1+rng.Intn(60)) * time.Minute,
			}
			if req.Cores == 0 && req.GPUs == 0 {
				req.Cores = 1
			}
			if _, err := s.Submit(req); err != nil {
				return false
			}
		}
		ok := true
		for step := 0; step < 24*60; step++ {
			clk.RunFor(time.Minute)
			if m.UsedGPUs() > m.Topology().TotalGPUs() || m.UsedCores() > m.Topology().TotalCores() ||
				m.UsedGPUs() < 0 || m.UsedCores() < 0 {
				ok = false
				break
			}
			_, _, finished := s.Counts()
			if finished == n {
				break
			}
		}
		_, _, finished := s.Counts()
		return ok && finished == n && m.UsedGPUs() == 0 && m.UsedCores() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatusPollLoadCreatesPlacementGaps(t *testing.T) {
	// The Fig. 6 mechanism: in sync mode, Q-priority message load (status
	// sweeps over all tracked jobs) starves forwarding to R, so placements
	// arrive in chunks separated by idle gaps; in async mode the matcher
	// keeps placing while Q chats.
	run := func(mode Mode) time.Duration {
		clk := vclock.NewVirtual(epoch)
		m, _ := cluster.New(cluster.Summit(30))
		s, _ := New(clk, Config{
			Machine: m, Policy: LowIDExhaustive, Mode: mode,
			Costs: Costs{
				SubmitMsg:   5 * time.Millisecond,
				StatusMsg:   500 * time.Millisecond, // heavy status traffic
				VertexVisit: 2 * time.Millisecond,   // slow exhaustive matches
			},
			StatusPollEvery: 5 * time.Minute,
		})
		for i := 0; i < 180; i++ {
			s.Submit(gpuJob(0))
		}
		clk.RunFor(24 * time.Hour)
		tl := s.Timeline()
		if len(tl) < 180 {
			t.Fatalf("%v: only %d placements", mode, len(tl))
		}
		var maxGap time.Duration
		for i := 1; i < len(tl); i++ {
			if g := tl[i].Time.Sub(tl[i-1].Time); g > maxGap {
				maxGap = g
			}
		}
		return maxGap
	}
	syncGap := run(Sync)
	asyncGap := run(Async)
	if syncGap < 4*asyncGap {
		t.Errorf("sync max placement gap %v not much larger than async %v", syncGap, asyncGap)
	}
	// The sync gaps are minutes-scale chunks, not jitter.
	if syncGap < time.Minute {
		t.Errorf("sync max gap %v too small to be Fig. 6 chunking", syncGap)
	}
}

func TestCrashKillsJobsAndDrainsNode(t *testing.T) {
	clk, s := newSched(t, 2, FirstMatch, Async)
	var jobs []*Job
	for i := 0; i < 12; i++ { // fills both nodes: 6 GPU jobs each
		j, err := s.Submit(gpuJob(0))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	clk.RunFor(time.Hour)
	var onNode0 []JobID
	for _, j := range jobs {
		got, _ := s.Job(j.ID)
		if got.State != Running {
			t.Fatalf("job %d = %v before crash", j.ID, got.State)
		}
		if got.Alloc.Parts[0].Node == 0 {
			onNode0 = append(onNode0, j.ID)
		}
	}
	if len(onNode0) != 6 {
		t.Fatalf("%d jobs on node 0, want 6", len(onNode0))
	}

	killed := s.Crash(0)
	if len(killed) != len(onNode0) {
		t.Fatalf("Crash killed %v, want %v", killed, onNode0)
	}
	for i, id := range killed {
		if id != onNode0[i] {
			t.Fatalf("Crash killed %v, want sorted %v", killed, onNode0)
		}
		if got, _ := s.Job(id); got.State != Failed {
			t.Errorf("victim %d = %v, want Failed", id, got.State)
		}
	}
	if s.Machine().UsedGPUs() != 6 {
		t.Errorf("UsedGPUs = %d after crash, want 6 (survivors only)", s.Machine().UsedGPUs())
	}

	// The crashed node must accept no new placements until revived.
	j, _ := s.Submit(gpuJob(0))
	clk.RunFor(time.Hour)
	if got, _ := s.Job(j.ID); got.State != Pending {
		t.Fatalf("job placed on crashed node: %v", got.State)
	}
	s.Revive(0)
	clk.RunFor(time.Hour)
	if got, _ := s.Job(j.ID); got.State != Running {
		t.Errorf("job after Revive = %v, want Running", got.State)
	}
}

func TestHangSuppressesAutoCompletion(t *testing.T) {
	clk, s := newSched(t, 1, FirstMatch, Async)
	j, _ := s.Submit(gpuJob(time.Hour))
	clk.RunFor(30 * time.Minute)
	if !s.Hang(j.ID) {
		t.Fatal("Hang of running job refused")
	}
	clk.RunFor(5 * time.Hour) // far past the 1h modeled duration
	got, _ := s.Job(j.ID)
	if got.State != Running || !s.Hung(j.ID) {
		t.Fatalf("hung job = %v (hung=%v), want Running/true", got.State, s.Hung(j.ID))
	}
	if s.Machine().UsedGPUs() != 1 {
		t.Error("hung job released its GPU")
	}
	// The watchdog's kill path: Fail gets it off the machine.
	if err := s.Fail(j.ID); err != nil {
		t.Fatal(err)
	}
	if s.Hung(j.ID) {
		t.Error("job still reported hung after Fail")
	}
	if s.Machine().UsedGPUs() != 0 {
		t.Error("GPU not released after failing hung job")
	}
	// Hang of a terminal or unknown job is refused.
	if s.Hang(j.ID) || s.Hang(JobID(9999)) {
		t.Error("Hang accepted a non-running job")
	}
}

// TestAutoCompleteRacesManualFail holds the benign race between a job's
// modeled auto-completion and a manual Fail at the same virtual instant. The
// clock runs same-instant events in FIFO order, so the Fail is scheduled
// once ahead of the auto-completion event and once behind it. Whichever runs
// second loses: an auto-completion behind the Fail is canceled by it, and a
// Fail behind the auto-completion gets ErrAlreadyTerminal and nothing else.
// Either way the job finishes once, no GPU or core leaks, and the
// auto-completion counts no unexpected error.
func TestAutoCompleteRacesManualFail(t *testing.T) {
	rig := func() (*vclock.Virtual, *Scheduler, *telemetry.Telemetry, *Job) {
		clk := vclock.NewVirtual(epoch)
		m, err := cluster.New(cluster.Summit(2))
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.Nop()
		s, err := New(clk, Config{Machine: m, Policy: FirstMatch, Mode: Async, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(Request{Name: "r", GPUs: 1, Cores: 2, Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return clk, s, tel, j
	}
	// A probe run finds the instant the job auto-completes.
	clk, _, _, probe := rig()
	clk.Run()
	if probe.State != Completed {
		t.Fatalf("probe job is %v, want completed", probe.State)
	}
	autoAt := probe.EndTime
	for _, failFirst := range []bool{true, false} {
		clk, s, tel, j := rig()
		var failErr error
		var finished []State
		s.OnFinish(func(j *Job) { finished = append(finished, j.State) })
		fail := func() { failErr = s.Fail(j.ID) }
		want := State(Completed)
		if failFirst {
			// Queued before the job starts: ahead of the auto-completion.
			clk.At(autoAt, fail)
			want = Failed
		} else {
			// Queued once the start has armed the auto-completion: behind it.
			s.OnStart(func(*Job) { clk.At(autoAt, fail) })
		}
		clk.Run()
		switch {
		case failFirst && failErr != nil:
			t.Errorf("Fail ahead of the auto-completion: %v", failErr)
		case !failFirst && !errors.Is(failErr, ErrAlreadyTerminal):
			t.Errorf("Fail behind the auto-completion got %v, want ErrAlreadyTerminal", failErr)
		}
		if fmt.Sprint(finished) != fmt.Sprint([]State{want}) || !j.EndTime.Equal(autoAt) {
			t.Errorf("failFirst=%v: finished %v at %v, want [%v] at %v", failFirst, finished, j.EndTime, want, autoAt)
		}
		if m := s.Machine(); m.UsedGPUs() != 0 || m.UsedCores() != 0 {
			t.Errorf("failFirst=%v: resources leaked: %d GPUs %d cores", failFirst, m.UsedGPUs(), m.UsedCores())
		}
		if got := tel.Registry().Counter("sched.autocomplete_errors_total").Value(); got != 0 {
			t.Errorf("failFirst=%v: autocomplete saw %d unexpected errors", failFirst, got)
		}
	}
}
