package vclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refVirtual is an executable specification of Virtual: a plain slice
// scanned linearly for the earliest (at, seq) event, with lazy cancel
// marks — the pre-optimization implementation, kept as the oracle the
// four-ary index-tracked heap is fuzzed against. Any divergence in event
// order, observed times, Cancel results, or the pending count is an equivalence
// bug in the optimized engine.
type refVirtual struct {
	now      time.Time
	seq      int64
	nextID   EventID
	events   []*refEvent
	canceled map[EventID]bool
}

type refEvent struct {
	at  time.Time
	seq int64
	id  EventID
	fn  func()
}

func newRefVirtual(epoch time.Time) *refVirtual {
	return &refVirtual{now: epoch, canceled: make(map[EventID]bool)}
}

func (r *refVirtual) Now() time.Time { return r.now }

func (r *refVirtual) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return r.At(r.now.Add(d), fn)
}

func (r *refVirtual) At(t time.Time, fn func()) EventID {
	if t.Before(r.now) {
		t = r.now
	}
	r.nextID++
	r.seq++
	r.events = append(r.events, &refEvent{at: t, seq: r.seq, id: r.nextID, fn: fn})
	return r.nextID
}

func (r *refVirtual) Cancel(id EventID) bool {
	if r.canceled[id] {
		return false
	}
	for _, e := range r.events {
		if e.id == id {
			r.canceled[id] = true
			return true
		}
	}
	return false
}

func (r *refVirtual) Pending() int { return len(r.events) - len(r.canceled) }

func (r *refVirtual) Step() bool {
	for len(r.events) > 0 {
		best := 0
		for i := 1; i < len(r.events); i++ {
			e, b := r.events[i], r.events[best]
			if e.at.Before(b.at) || (e.at.Equal(b.at) && e.seq < b.seq) {
				best = i
			}
		}
		e := r.events[best]
		r.events = append(r.events[:best], r.events[best+1:]...)
		if r.canceled[e.id] {
			delete(r.canceled, e.id)
			continue
		}
		r.now = e.at
		e.fn()
		return true
	}
	return false
}

func (r *refVirtual) RunUntil(deadline time.Time) {
	for {
		earliest, any := time.Time{}, false
		for _, e := range r.events {
			if !r.canceled[e.id] && (!any || e.at.Before(earliest)) {
				earliest, any = e.at, true
			}
		}
		if !any || earliest.After(deadline) {
			break
		}
		r.Step()
	}
	if r.now.Before(deadline) {
		r.now = deadline
	}
}

// desClock is the surface the equivalence driver needs from both engines.
type desClock interface {
	Now() time.Time
	After(d time.Duration, fn func()) EventID
	Cancel(id EventID) bool
	Pending() int
	Step() bool
	RunUntil(deadline time.Time)
}

// driveScript runs a seeded randomized schedule against clk and returns the
// observed trace. Every decision a callback makes (nested scheduling,
// cancellations, delays) is a pure function of the event's label and the
// seed — never of host state — so two behaviorally identical engines
// produce byte-identical traces.
func driveScript(clk desClock, seed int64, initial int) []string {
	var trace []string
	ids := make(map[int]EventID)
	label := 0
	var schedule func(from int, depth int)
	schedule = func(from, depth int) {
		label++
		me := label
		rng := rand.New(rand.NewSource(seed + int64(me)*7919))
		// Coarse delays force dense same-timestamp runs; occasional zero
		// delays exercise fire-at-now batches.
		d := time.Duration(rng.Intn(5)) * time.Second
		ids[me] = clk.After(d, func() {
			trace = append(trace, fmt.Sprintf("fire %d @%v", me, clk.Now().Sub(time.Time{})))
			if depth < 3 && rng.Intn(2) == 0 {
				schedule(me, depth+1)
			}
			if rng.Intn(3) == 0 {
				// Cancel a pseudo-random earlier label: may be pending,
				// already fired, or already canceled — all three results
				// must match. A fired or canceled label's slot is usually
				// reused by then, so its stale ID meets a newer generation.
				victim := 1 + rng.Intn(me)
				trace = append(trace, fmt.Sprintf("cancel %d by %d = %v", victim, me, clk.Cancel(ids[victim])))
			}
			if rng.Intn(4) == 0 {
				schedule(me, depth+1)
			}
		})
	}
	for i := 0; i < initial; i++ {
		schedule(0, 0)
	}
	// The zero ID and an ID never issued name no event in either engine;
	// the second carries slot 0 (live here) under a generation it never had.
	for _, id := range []EventID{0, 1<<32 | 1<<20} {
		trace = append(trace, fmt.Sprintf("cancel unissued %#x = %v", int64(id), clk.Cancel(id)))
	}
	// Interleave stepping with mid-run cancels and a deadline stop.
	steps := 0
	for clk.Step() {
		steps++
		if steps%7 == 0 {
			rng := rand.New(rand.NewSource(seed ^ int64(steps)))
			victim := 1 + rng.Intn(label)
			trace = append(trace, fmt.Sprintf("midcancel %d = %v", victim, clk.Cancel(ids[victim])))
		}
		if steps > 100000 {
			panic("runaway script")
		}
	}
	trace = append(trace, fmt.Sprintf("end steps=%d pending=%d now=%v",
		steps, clk.Pending(), clk.Now().Sub(time.Time{})))
	return trace
}

// TestVirtualEquivalentToReference fuzzes the optimized engine against the
// linear-scan oracle: event order, observed clock readings, Cancel results,
// and the final step and pending counts must be identical for every seed.
func TestVirtualEquivalentToReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := driveScript(NewVirtual(epoch), seed, 20)
		want := driveScript(newRefVirtual(epoch), seed, 20)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace[%d]:\n optimized: %s\n reference: %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestVirtualRunUntilEquivalence checks the deadline path against the
// oracle, including events exactly on the deadline.
func TestVirtualRunUntilEquivalence(t *testing.T) {
	build := func(clk desClock) []string {
		var trace []string
		for i := 0; i < 30; i++ {
			i := i
			clk.After(time.Duration(i%7)*time.Second, func() {
				trace = append(trace, fmt.Sprintf("%d@%v", i, clk.Now().Sub(epoch)))
			})
		}
		clk.RunUntil(epoch.Add(3 * time.Second))
		trace = append(trace, fmt.Sprintf("cut pending=%d now=%v", clk.Pending(), clk.Now().Sub(epoch)))
		clk.RunUntil(epoch.Add(time.Hour))
		trace = append(trace, fmt.Sprintf("end pending=%d now=%v", clk.Pending(), clk.Now().Sub(epoch)))
		return trace
	}
	got := build(NewVirtual(epoch))
	want := build(newRefVirtual(epoch))
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace[%d]: optimized %q, reference %q", i, got[i], want[i])
		}
	}
}

// TestCancelWithinSameTimestampRun pins that an event due at the same
// instant as the running one, and queued behind it, is still cancelable,
// exactly once.
func TestCancelWithinSameTimestampRun(t *testing.T) {
	v := NewVirtual(epoch)
	var fired []int
	var id2, id3 EventID
	v.After(time.Second, func() {
		fired = append(fired, 1)
		if !v.Cancel(id3) {
			t.Error("Cancel of later same-timestamp event returned false")
		}
		if v.Cancel(id3) {
			t.Error("double Cancel of same-timestamp event returned true")
		}
	})
	id2 = v.After(time.Second, func() { fired = append(fired, 2) })
	id3 = v.After(time.Second, func() { fired = append(fired, 3) })
	_ = id2
	run(v)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired = %v, want [1 2]", fired)
	}
	if v.Pending() != 0 {
		t.Errorf("Pending = %d after Run", v.Pending())
	}
}

// TestNextMatchesStep holds Next to the time of the event Step runs next,
// including when a same-instant event queued behind the running one was
// canceled by it.
func TestNextMatchesStep(t *testing.T) {
	v := NewVirtual(epoch)
	var ran []time.Time
	record := func() { ran = append(ran, v.Now()) }
	var staged EventID
	v.After(time.Second, func() { record(); v.Cancel(staged) })
	staged = v.After(time.Second, record)
	v.After(3*time.Second, record)
	v.After(3*time.Second, func() { record(); v.After(0, record) })
	for {
		next, ok := v.Next()
		n := len(ran)
		if !v.Step() {
			if ok {
				t.Fatalf("Next reported %v, but Step ran nothing", next)
			}
			break
		}
		if !ok || len(ran) != n+1 || !ran[n].Equal(next) {
			t.Fatalf("Next reported %v (%v); Step ran events at %v", next, ok, ran[n:])
		}
	}
	if len(ran) != 4 {
		t.Errorf("%d events ran, want 4", len(ran))
	}
}

// TestCancelEarlierInRunReturnsFalse pins Cancel-after-fire inside a
// same-timestamp run: by the time a later event runs, its same-instant
// predecessor has fired, so canceling it reports false.
func TestCancelEarlierInRunReturnsFalse(t *testing.T) {
	v := NewVirtual(epoch)
	var id1 EventID
	ran := false
	id1 = v.After(time.Second, func() {})
	v.After(time.Second, func() {
		ran = true
		if v.Cancel(id1) {
			t.Error("Cancel of already-fired same-timestamp event returned true")
		}
	})
	run(v)
	if !ran {
		t.Fatal("second event never ran")
	}
}

// TestCancelSelfDuringExecutionReturnsFalse pins that an event canceling
// its own ID mid-callback sees false (it is no longer pending).
func TestCancelSelfDuringExecutionReturnsFalse(t *testing.T) {
	v := NewVirtual(epoch)
	var self EventID
	self = v.After(time.Second, func() {
		if v.Cancel(self) {
			t.Error("Cancel of the executing event returned true")
		}
	})
	run(v)
}

// TestEventStructsRecycled checks that fired events' structs and slots are
// reused: a smaller second wave must not grow the slot table.
func TestEventStructsRecycled(t *testing.T) {
	v := NewVirtual(epoch)
	for i := 0; i < 1000; i++ {
		v.After(time.Duration(i)*time.Millisecond, func() {})
	}
	run(v)
	if v.Pending() != 0 {
		t.Fatalf("Pending = %d", v.Pending())
	}
	slots := len(v.slots)
	for i := 0; i < 500; i++ {
		v.After(time.Duration(i)*time.Millisecond, func() {})
	}
	run(v)
	if len(v.slots) != slots {
		t.Errorf("slot table grew from %d to %d on a smaller second wave", slots, len(v.slots))
	}
}
