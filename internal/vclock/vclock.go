// Package vclock is the coordinator's time: Virtual, a deterministic
// discrete-event scheduler. The workflow manager, scheduler, fleet and fault
// layers take a *Virtual and run as callbacks on it, driven by one
// goroutine: the campaign driver replays a 600,000-node-hour Summit campaign
// on one machine, and event order, not locking, is what orders their state
// changes (DESIGN.md §6).
package vclock

import "time"

// EventID identifies a scheduled callback so it can be canceled.
type EventID int64

// ---------------------------------------------------------------------------
// Virtual clock (discrete-event scheduler)

// event is one pending callback. pos is its index in the four-ary heap;
// slot is its fixed place in the slot table, and gen counts the times the
// struct has fired or been canceled. A struct is reused for every event its
// slot ever holds, so a campaign holding 100k+ pending events does not churn
// the garbage collector.
type event struct {
	at   time.Time
	seq  int64 // tie-break: FIFO among events at the same instant
	fn   func()
	pos  int32
	slot int32
	gen  uint32
}

// Virtual is a single-threaded discrete-event clock. Events execute in
// strictly nondecreasing time order with FIFO tie-breaking, which makes
// campaign replays deterministic. Virtual is not safe for concurrent use;
// the DES is intentionally single-threaded (see DESIGN.md §6).
//
// Engineering (DESIGN.md §11): the pending set is one index-tracked
// four-ary heap keyed on (at, seq) — half the depth of a binary heap, with
// every sift updating the events' stored positions. An EventID names a slot
// and the generation it was issued under, so Cancel is a table lookup plus
// one targeted heap removal, and an ID whose event already fired or was
// canceled no longer matches its slot's generation.
type Virtual struct {
	now   time.Time
	seq   int64
	heap  []*event
	slots []*event // every event struct ever allocated, by slot
	free  []int32  // slots whose event is neither pending nor running
}

// NewVirtual returns a virtual clock starting at the given epoch. The paper's
// campaign ran Dec 2020 – Mar 2021; the campaign driver uses that epoch for
// flavor, but any epoch works.
func NewVirtual(epoch time.Time) *Virtual { return &Virtual{now: epoch} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return v.now }

// After schedules fn at now+d. Negative d is treated as zero.
func (v *Virtual) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return v.At(v.now.Add(d), fn)
}

// At schedules fn at the absolute virtual time t. Times in the past are
// clamped to now, preserving run-order determinism.
func (v *Virtual) At(t time.Time, fn func()) EventID {
	if t.Before(v.now) {
		t = v.now
	}
	var e *event
	if n := len(v.free); n > 0 {
		e = v.slots[v.free[n-1]]
		v.free = v.free[:n-1]
	} else {
		e = &event{slot: int32(len(v.slots))}
		v.slots = append(v.slots, e)
	}
	v.seq++
	e.at, e.seq, e.fn = t, v.seq, fn
	v.heapPush(e)
	// slot+1 keeps the zero EventID from naming slot 0.
	return EventID(int64(e.slot+1)<<32 | int64(e.gen))
}

// Cancel revokes a pending event. It returns false if the event already
// fired, was already canceled, or never existed.
func (v *Virtual) Cancel(id EventID) bool {
	slot := int64(id>>32) - 1
	if slot < 0 || slot >= int64(len(v.slots)) {
		return false
	}
	e := v.slots[slot]
	if e.fn == nil || e.gen != uint32(id) {
		return false
	}
	v.heapRemove(int(e.pos))
	v.release(e)
	return true
}

// release retires an event that fired or was canceled: it drops the
// closure, invalidates every ID issued for it, and frees its slot.
func (v *Virtual) release(e *event) {
	e.fn = nil
	e.gen++
	v.free = append(v.free, e.slot)
}

// Pending returns the number of scheduled (uncanceled) events.
func (v *Virtual) Pending() int { return len(v.heap) }

// Step runs the single earliest event, advancing time to it.
// It returns false when no events remain.
func (v *Virtual) Step() bool {
	if len(v.heap) == 0 {
		return false
	}
	e := v.heap[0]
	v.heapRemove(0)
	v.now = e.at
	fn := e.fn
	v.release(e)
	fn()
	return true
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline (even if the event queue still holds later events).
func (v *Virtual) RunUntil(deadline time.Time) {
	for {
		t, ok := v.Next()
		if !ok || t.After(deadline) {
			break
		}
		v.Step()
	}
	if v.now.Before(deadline) {
		v.now = deadline
	}
}

// RunFor executes events within the next d of virtual time.
func (v *Virtual) RunFor(d time.Duration) { v.RunUntil(v.now.Add(d)) }

// Next reports the time of the event the next Step runs, or false when no
// events remain.
func (v *Virtual) Next() (time.Time, bool) {
	if len(v.heap) == 0 {
		return time.Time{}, false
	}
	return v.heap[0].at, true
}

// ---------------------------------------------------------------------------
// Index-tracked four-ary heap, keyed on (at, seq)

// before reports whether a fires strictly before b.
func before(a, b *event) bool {
	if c := a.at.Compare(b.at); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (v *Virtual) heapPush(e *event) {
	e.pos = int32(len(v.heap))
	v.heap = append(v.heap, e)
	v.siftUp(len(v.heap) - 1)
}

// heapRemove unlinks the event at position i, filling the hole with the
// last element and restoring the heap invariant with a single sift.
func (v *Virtual) heapRemove(i int) {
	last := len(v.heap) - 1
	moved := v.heap[last]
	v.heap[last] = nil
	v.heap = v.heap[:last]
	if i == last {
		return
	}
	v.heap[i] = moved
	moved.pos = int32(i)
	if !v.siftDown(i) {
		v.siftUp(i)
	}
}

func (v *Virtual) siftUp(i int) {
	e := v.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := v.heap[parent]
		if !before(e, p) {
			break
		}
		v.heap[i] = p
		p.pos = int32(i)
		i = parent
	}
	v.heap[i] = e
	e.pos = int32(i)
}

// siftDown restores the invariant below position i; reports whether the
// element moved.
func (v *Virtual) siftDown(i int) bool {
	e := v.heap[i]
	start := i
	n := len(v.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		limit := first + 4
		if limit > n {
			limit = n
		}
		for c := first + 1; c < limit; c++ {
			if before(v.heap[c], v.heap[best]) {
				best = c
			}
		}
		if !before(v.heap[best], e) {
			break
		}
		v.heap[i] = v.heap[best]
		v.heap[i].pos = int32(i)
		i = best
	}
	v.heap[i] = e
	e.pos = int32(i)
	return i != start
}

// Ticker invokes fn every period until Stop is called.
type Ticker struct {
	clk    *Virtual
	period time.Duration
	fn     func(now time.Time)
	// ticked is tick bound once, so re-arming allocates nothing.
	ticked func()
	cur    EventID
	done   bool
}

// NewTicker starts a recurring callback. The first tick fires one period
// from now.
func NewTicker(clk *Virtual, period time.Duration, fn func(now time.Time)) *Ticker {
	t := &Ticker{clk: clk, period: period, fn: fn}
	t.ticked = t.tick
	t.cur = clk.After(period, t.ticked)
	return t
}

func (t *Ticker) tick() {
	if t.done {
		return
	}
	t.cur = t.clk.After(t.period, t.ticked)
	t.fn(t.clk.Now())
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.done = true
	t.clk.Cancel(t.cur)
}
