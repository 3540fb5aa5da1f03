package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/vclock"
)

// TestRingMatchesSliceModel drives a ring and a plain slice through the
// same random pushes at either end, pops and removals from anywhere, across
// many wraps and growths: same order, same front, and no slot outside the
// live run holding a value.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ring[string]
		var model []string
		grew, wraps := 0, 0
		for op := 0; op < 3000; op++ {
			v := fmt.Sprintf("v%d", op)
			before := len(r.buf)
			switch x := rng.Intn(10); {
			case x < 4 && len(model) > 0:
				if got := r.PopFront(); got != model[0] {
					t.Fatalf("seed %d op %d: popped %s, model %s", seed, op, got, model[0])
				}
				model = model[1:]
			case x < 7:
				r.PushBack(v)
				model = append(model, v)
			case x < 9:
				r.PushFront(v)
				model = append([]string{v}, model...)
			case len(model) > 0:
				// Remove from anywhere, or a value that is not queued.
				i := rng.Intn(len(model) + 1)
				target := "absent"
				if i < len(model) {
					target = model[i]
					model = slices.Delete(model, i, i+1)
				}
				if got := r.Remove(func(s string) bool { return s == target }); got != (target != "absent") {
					t.Fatalf("seed %d op %d: Remove(%s) = %v", seed, op, target, got)
				}
			}
			if len(r.buf) != before {
				grew++
			}
			if wrapped(&r) {
				wraps++
			}
			if got := r.AppendTo(nil); r.Len() != len(model) || !slices.Equal(got, model) {
				t.Fatalf("seed %d op %d: ring %v, model %v", seed, op, got, model)
			}
			if len(model) > 0 && r.Front() != model[0] {
				t.Fatalf("seed %d op %d: front %s, model %s", seed, op, r.Front(), model[0])
			}
			held := 0
			for _, s := range r.buf {
				if s != "" {
					held++
				}
			}
			if held != r.Len() {
				t.Fatalf("seed %d op %d: %d slots hold a value, %d are live", seed, op, held, r.Len())
			}
		}
		if grew < 2 || wraps == 0 {
			t.Fatalf("seed %d: the ring grew %d times and was wrapped after %d ops; the script must cross both", seed, grew, wraps)
		}
	}
}

// wrapped reports whether the ring's live run crosses the end of its array.
func wrapped[T any](r *Ring[T]) bool { return r.head+r.n > len(r.buf) }

// checkCounts holds Counts to the scan it replaced: queued is every
// submission in the inbox (a status sweep is not one) plus the pending FIFO
// and R's queue; running is every job whose state says so.
func checkCounts(t *testing.T, s *Scheduler, ids []JobID) {
	t.Helper()
	queued := s.pending.Len() + s.rQueue.Len()
	for _, m := range s.inbox.AppendTo(nil) {
		if m.job != nil {
			queued++
		}
	}
	running := 0
	for _, id := range ids {
		if j, _ := s.Job(id); j.State == Running {
			running++
		}
	}
	if q, r, _ := s.Counts(); q != queued || r != running {
		t.Fatalf("Counts = %d queued, %d running; the queues hold %d, the jobs say %d running", q, r, queued, running)
	}
}

// TestCancelFromWrappedQueues: Cancel takes a job out of the middle of a
// pending FIFO (sync) or R queue (async) whose live run has wrapped past
// the end of its array, and the rest start in submission order. Counts
// agrees with the jobs' states after every event, the inbox's included.
func TestCancelFromWrappedQueues(t *testing.T) {
	for _, tc := range []struct {
		mode       Mode
		queue      func(*Scheduler) *Ring[*Job]
		first, add int     // submissions before and after the head blocks
		cancel     []JobID // both in the wrapped queue
	}{
		// Ten jobs: six start, 7-10 wait in a 16-slot pending ring from
		// slot 6; ten more fill it to the end and wrap into slots 0-3.
		{Sync, func(s *Scheduler) *Ring[*Job] { return &s.pending }, 10, 10, []JobID{9, 18}},
		// R matches each forwarded job at once until the node is full, so
		// 7-10 sit in slots 6, 7, 0 and 1 of an 8-slot ring.
		{Async, func(s *Scheduler) *Ring[*Job] { return &s.rQueue }, 10, 2, []JobID{9, 11}},
	} {
		clk := vclock.NewVirtual(epoch)
		m, _ := cluster.New(cluster.Summit(1))
		s, _ := New(clk, Config{Machine: m, Policy: FirstMatch, Mode: tc.mode,
			StatusPollEvery: time.Second})
		var ids, started []JobID
		inboxWrapped := false
		s.OnStart(func(j *Job) { started = append(started, j.ID) })
		submit := func(n int) {
			for range n {
				j, err := s.Submit(gpuJob(0))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, j.ID)
				checkCounts(t, s, ids)
				inboxWrapped = inboxWrapped || wrapped(&s.inbox)
			}
		}
		run := func(d time.Duration) {
			for end := clk.Now().Add(d); clk.Step() && clk.Now().Before(end); {
				checkCounts(t, s, ids)
				inboxWrapped = inboxWrapped || wrapped(&s.inbox)
			}
		}
		submit(tc.first)
		run(time.Minute)
		submit(tc.add)
		run(time.Minute)
		q := tc.queue(s)
		if !wrapped(q) || q.Len() != tc.first+tc.add-6 {
			t.Fatalf("%v: queue holds %d jobs from slot %d of %d, want %d wrapped", tc.mode, q.Len(), q.head, len(q.buf), tc.first+tc.add-6)
		}
		for _, id := range tc.cancel {
			if !s.Cancel(id) {
				t.Fatalf("%v: Cancel(%d) refused", tc.mode, id)
			}
			checkCounts(t, s, ids)
		}
		// Free the node one job at a time until everything has run.
		for done := 0; done < len(started); done++ {
			if err := s.Complete(started[done]); err != nil {
				t.Fatal(err)
			}
			run(time.Minute)
		}
		var want []JobID
		for _, id := range ids {
			if !slices.Contains(tc.cancel, id) {
				want = append(want, id)
			}
		}
		if !slices.Equal(started, want) {
			t.Errorf("%v: start order %v, want %v", tc.mode, started, want)
		}
		if !inboxWrapped {
			t.Errorf("%v: the inbox never wrapped, so its count was never checked across a wrap", tc.mode)
		}
	}
}

// TestJobAllocationBudget counts the heap allocations of one job's whole
// life — Submit, Q's ingest (and forward, async), R's match, start and the
// modeled auto-completion — with telemetry off, once the queues, tables and
// metric handles are warm. Four remain: the Job, its placement's Parts, the
// part's core and GPU ids, and the auto-completion callback. The chain
// used to re-allocate its queues, placements and continuations: 12 per job
// in sync mode and 14 in async.
func TestJobAllocationBudget(t *testing.T) {
	for _, mode := range []Mode{Sync, Async} {
		clk, s := newSched(t, 1, FirstMatch, mode)
		life := func() {
			if _, err := s.Submit(gpuJob(time.Minute)); err != nil {
				t.Fatal(err)
			}
			for clk.Step() {
			}
		}
		life()
		if n := testing.AllocsPerRun(1000, life); n != 4 {
			t.Errorf("%v: %v allocations per job, want 4", mode, n)
		}
		if _, _, finished := s.Counts(); finished != 1002 {
			t.Fatalf("%v: %d jobs finished, want 1002", mode, finished)
		}
	}
}
