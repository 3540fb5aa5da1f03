// Package vclock abstracts wall-clock time behind a Clock interface with two
// implementations: Real (backed by the system clock) and Virtual (a
// deterministic discrete-event scheduler). The same workflow-manager,
// scheduler, and feedback code runs under either clock. The examples and the
// campaign driver all run in virtual time — the driver replays a
// 600,000-node-hour Summit campaign on one machine; Real is what a
// telemetry.Telemetry measures with until a campaign rebinds it.
package vclock

import (
	"slices"
	"sync"
	"time"
)

// EventID identifies a scheduled callback so it can be canceled.
type EventID int64

// Clock is the time facility components program against. Now returns the
// current time; After schedules fn to run once d from now; Cancel revokes a
// pending event (returning false if it already fired or never existed).
type Clock interface {
	Now() time.Time
	After(d time.Duration, fn func()) EventID
	Cancel(id EventID) bool
}

// ---------------------------------------------------------------------------
// Real clock

// Real is a Clock backed by the system clock and time.AfterFunc.
// The zero value is ready to use.
type Real struct {
	mu     sync.Mutex
	nextID EventID
	timers map[EventID]*time.Timer
}

// NewReal returns a real-time clock.
func NewReal() *Real { return &Real{timers: make(map[EventID]*time.Timer)} }

// Now returns the current wall-clock time.
func (r *Real) Now() time.Time { return time.Now() }

// After schedules fn after real duration d.
func (r *Real) After(d time.Duration, fn func()) EventID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timers == nil {
		r.timers = make(map[EventID]*time.Timer)
	}
	r.nextID++
	id := r.nextID
	r.timers[id] = time.AfterFunc(d, func() {
		r.mu.Lock()
		delete(r.timers, id)
		r.mu.Unlock()
		fn()
	})
	return id
}

// Cancel stops a pending timer.
func (r *Real) Cancel(id EventID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[id]
	if !ok {
		return false
	}
	delete(r.timers, id)
	return t.Stop()
}

// ---------------------------------------------------------------------------
// Virtual clock (discrete-event scheduler)

// event is one pending callback. pos is its index in the four-ary heap, or
// -1 while the event is staged in the current drain batch. Fired and
// canceled events return to a freelist with fn cleared, so a campaign
// holding 100k+ pending events reuses the same structs instead of churning
// the garbage collector.
type event struct {
	at  time.Time
	seq int64 // tie-break: FIFO among events at the same instant
	id  EventID
	fn  func()
	pos int32
}

// Virtual is a single-threaded discrete-event clock. Events execute in
// strictly nondecreasing time order with FIFO tie-breaking, which makes
// campaign replays deterministic. Virtual is not safe for concurrent use;
// the DES is intentionally single-threaded (see DESIGN.md §6).
//
// Engineering (DESIGN.md §11): the pending set lives in an index-tracked
// four-ary heap — half the depth of a binary heap and better cache locality
// per level, with every sift updating the events' stored positions. The
// position index makes Cancel O(log n) (a targeted removal) instead of the
// former O(n) confirmation scan, and lets Step drain a whole run of
// same-timestamp events in one pass: equal-time events form a rooted
// subtree of the heap, so the run is collected by a short DFS and removed
// with targeted sifts instead of full root-cascading pops, then executed
// FIFO from a flat batch.
type Virtual struct {
	now    time.Time
	seq    int64
	nextID EventID

	heap []*event

	// Pending-event index: pages of 2^pageBits slots keyed by id>>pageBits.
	// IDs are sequential, so inserts always land on the newest page and the
	// one-page cache makes the common lookup map-free; a page is dropped as
	// soon as its last live event fires or is canceled. This is what makes
	// Cancel O(log n) — a direct lookup plus one targeted heap sift —
	// instead of the former O(n) scan over the event slice.
	pages      map[EventID]*eventPage
	cachedNo   EventID
	cachedPage *eventPage
	pending    int

	// batch is the current same-timestamp run being executed, sorted by
	// seq; batchPos is the cursor. Canceled batch entries have fn == nil
	// and are skipped (and recycled) as the cursor passes them.
	batch    []*event
	batchPos int

	free     []*event // recycled event structs
	scratch  []int32  // DFS stack reused across drains
	executed int64
}

const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// eventPage is one dense window of the pending-event index.
type eventPage struct {
	events [pageSize]*event
	live   int
}

// NewVirtual returns a virtual clock starting at the given epoch. The paper's
// campaign ran Dec 2020 – Mar 2021; the campaign driver uses that epoch for
// flavor, but any epoch works.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{now: epoch, pages: make(map[EventID]*eventPage), cachedNo: -1}
}

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
	v.nextID++
	v.seq++
	e := v.alloc()
	e.at, e.seq, e.id, e.fn = t, v.seq, v.nextID, fn
	v.indexPut(e)
	v.heapPush(e)
	return v.nextID
}

// Cancel revokes a pending event. It returns false if the event already
// fired, was already canceled, or never existed.
func (v *Virtual) Cancel(id EventID) bool {
	e := v.indexTake(id)
	if e == nil {
		return false
	}
	if e.pos >= 0 {
		v.heapRemove(int(e.pos))
		v.recycle(e)
	} else {
		// Staged in the drain batch: mark dead; the struct is reclaimed
		// when the batch cursor passes it.
		e.fn = nil
	}
	return true
}

// Pending returns the number of scheduled (uncanceled) events.
func (v *Virtual) Pending() int { return v.pending }

// Executed returns the total number of events that have run.
func (v *Virtual) Executed() int64 { return v.executed }

// Step runs the single earliest event, advancing time to it.
// It returns false when no events remain.
func (v *Virtual) Step() bool {
	e := v.peekBatch()
	if e == nil {
		if !v.drainRun() {
			return false
		}
		e = v.peekBatch()
	}
	v.batch[v.batchPos] = nil
	v.batchPos++
	v.now = e.at
	v.executed++
	fn := e.fn
	v.indexTake(e.id)
	v.recycle(e)
	fn()
	return true
}

// Run executes events until none remain.
func (v *Virtual) Run() {
	for v.Step() {
	}
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

// peekBatch returns the next live event of the current drain batch without
// consuming it, recycling any canceled entries it skips. Returns nil when
// the batch is exhausted.
func (v *Virtual) peekBatch() *event {
	for v.batchPos < len(v.batch) {
		e := v.batch[v.batchPos]
		if e.fn != nil {
			return e
		}
		v.batch[v.batchPos] = nil
		v.batchPos++
		v.recycle(e)
	}
	return nil
}

// Next reports the time of the event the next Step runs, or false when no
// events remain.
func (v *Virtual) Next() (time.Time, bool) {
	if e := v.peekBatch(); e != nil {
		return e.at, true
	}
	if len(v.heap) > 0 {
		return v.heap[0].at, true
	}
	return time.Time{}, false
}

// drainRun moves the earliest same-timestamp run of events from the heap
// into the execution batch, sorted FIFO by seq. Equal-time events form a
// subtree rooted at the heap root (an ancestor of an equal-time node sorts
// between the root and that node, so it carries the same timestamp), which
// lets the run be collected with a short DFS that only descends into
// equal-time children, then removed with one targeted sift each — no
// re-heapify between pops. Returns false when the heap is empty.
func (v *Virtual) drainRun() bool {
	if len(v.heap) == 0 {
		return false
	}
	v.batch = v.batch[:0]
	v.batchPos = 0
	t := v.heap[0].at
	stack := append(v.scratch[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v.batch = append(v.batch, v.heap[i])
		for c := 4*i + 1; c <= 4*i+4 && int(c) < len(v.heap); c++ {
			if v.heap[c].at.Equal(t) {
				stack = append(stack, c)
			}
		}
	}
	v.scratch = stack[:0]
	if len(v.batch) == len(v.heap) {
		// The whole heap fires at once (dense same-timestamp burst): just
		// clear it — no targeted sifts needed when nothing is left behind.
		for i := range v.heap {
			v.heap[i] = nil
		}
		v.heap = v.heap[:0]
		for _, e := range v.batch {
			e.pos = -1
		}
	} else {
		for _, e := range v.batch {
			v.heapRemove(int(e.pos))
			e.pos = -1
		}
	}
	slices.SortFunc(v.batch, func(a, b *event) int {
		// Same timestamp throughout the run: FIFO order is seq order.
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	return true
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

// ---------------------------------------------------------------------------
// Paged pending-event index

// indexPut registers a freshly scheduled event. IDs are assigned
// sequentially, so the insert lands on the newest page, which stays cached.
func (v *Virtual) indexPut(e *event) {
	no := e.id >> pageBits
	p := v.cachedPage
	if no != v.cachedNo || p == nil {
		p = v.pages[no]
		if p == nil {
			p = &eventPage{}
			v.pages[no] = p
		}
		v.cachedNo, v.cachedPage = no, p
	}
	p.events[e.id&pageMask] = e
	p.live++
	v.pending++
}

// indexTake removes and returns the pending event with the given id, or nil
// if it already fired, was canceled, or never existed. Pages are dropped the
// moment their last live event leaves, so a long campaign's index stays
// proportional to the pending set, not to the total events ever scheduled.
func (v *Virtual) indexTake(id EventID) *event {
	if id <= 0 {
		return nil
	}
	no := id >> pageBits
	p := v.cachedPage
	if no != v.cachedNo || p == nil {
		p = v.pages[no]
		if p == nil {
			return nil
		}
		v.cachedNo, v.cachedPage = no, p
	}
	slot := id & pageMask
	e := p.events[slot]
	if e == nil {
		return nil
	}
	p.events[slot] = nil
	p.live--
	v.pending--
	if p.live == 0 {
		delete(v.pages, no)
		if v.cachedNo == no {
			v.cachedPage = nil
		}
	}
	return e
}

// ---------------------------------------------------------------------------
// Event freelist

// alloc returns a recycled event struct, or a new one when the freelist is
// empty.
func (v *Virtual) alloc() *event {
	if n := len(v.free); n > 0 {
		e := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		return e
	}
	return &event{}
}

// recycle clears an event (releasing its closure) and returns it to the
// freelist.
func (v *Virtual) recycle(e *event) {
	e.fn = nil
	v.free = append(v.free, e)
}

// Ticker invokes fn every period until Stop is called, under any Clock.
type Ticker struct {
	clk    Clock
	period time.Duration
	fn     func(now time.Time)
	mu     sync.Mutex
	cur    EventID
	done   bool
}

// NewTicker starts a recurring callback. The first tick fires one period
// from now.
func NewTicker(clk Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	t := &Ticker{clk: clk, period: period, fn: fn}
	t.mu.Lock()
	t.cur = clk.After(period, t.tick)
	t.mu.Unlock()
	return t
}

func (t *Ticker) tick() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.cur = t.clk.After(t.period, t.tick)
	t.mu.Unlock()
	t.fn(t.clk.Now())
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	t.clk.Cancel(t.cur)
}
