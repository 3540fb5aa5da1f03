package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

// run steps v until no events remain.
func run(v *Virtual) {
	for v.Step() {
	}
}

func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	v.After(3*time.Second, func() { got = append(got, 3) })
	v.After(1*time.Second, func() { got = append(got, 1) })
	v.After(2*time.Second, func() { got = append(got, 2) })
	run(v)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if !v.Now().Equal(epoch.Add(3 * time.Second)) {
		t.Errorf("clock ends at %v", v.Now())
	}
}

func TestVirtualFIFOTieBreak(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.After(time.Second, func() { got = append(got, i) })
	}
	run(v)
	for i, x := range got {
		if x != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	// Events scheduled from inside callbacks must interleave correctly:
	// this is how simulations produce frames while running.
	v := NewVirtual(epoch)
	var frames []time.Duration
	var emit func()
	emit = func() {
		d := v.Now().Sub(epoch)
		frames = append(frames, d)
		if d < 4*time.Second {
			v.After(time.Second, emit)
		}
	}
	v.After(time.Second, emit)
	run(v)
	if len(frames) != 4 {
		t.Fatalf("frames = %v", frames)
	}
	for i, f := range frames {
		if f != time.Duration(i+1)*time.Second {
			t.Errorf("frame %d at %v", i, f)
		}
	}
}

func TestVirtualCancel(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	id := v.After(time.Second, func() { fired = true })
	if !v.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if v.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	run(v)
	if fired {
		t.Error("canceled event fired")
	}
	if v.Cancel(EventID(9999)) {
		t.Error("Cancel of unknown id returned true")
	}
}

func TestVirtualCancelAfterFire(t *testing.T) {
	v := NewVirtual(epoch)
	id := v.After(time.Second, func() {})
	run(v)
	if v.Cancel(id) {
		t.Error("Cancel after fire returned true")
	}
}

func TestVirtualPendingAndExecuted(t *testing.T) {
	v := NewVirtual(epoch)
	executed := 0
	v.After(time.Second, func() { executed++ })
	id := v.After(2*time.Second, func() {})
	if v.Pending() != 2 {
		t.Errorf("Pending = %d", v.Pending())
	}
	v.Cancel(id)
	if v.Pending() != 1 {
		t.Errorf("Pending after cancel = %d", v.Pending())
	}
	run(v)
	if executed != 1 {
		t.Errorf("executed %d events, want 1", executed)
	}
}

func TestVirtualRunUntil(t *testing.T) {
	v := NewVirtual(epoch)
	var ran []string
	v.After(time.Hour, func() { ran = append(ran, "early") })
	v.After(48*time.Hour, func() { ran = append(ran, "late") })
	v.RunUntil(epoch.Add(24 * time.Hour))
	if len(ran) != 1 || ran[0] != "early" {
		t.Errorf("ran = %v", ran)
	}
	// Clock must land exactly on the deadline (a 24-hour allocation ends on
	// time even if simulations would keep producing events).
	if !v.Now().Equal(epoch.Add(24 * time.Hour)) {
		t.Errorf("Now = %v", v.Now())
	}
	v.RunFor(30 * time.Hour)
	if len(ran) != 2 {
		t.Errorf("after RunFor ran = %v", ran)
	}
}

func TestVirtualPastSchedulingClamps(t *testing.T) {
	v := NewVirtual(epoch)
	v.After(time.Second, func() {
		v.At(epoch, func() {}) // in the past: must clamp, not rewind time
	})
	run(v)
	if v.Now().Before(epoch.Add(time.Second)) {
		t.Errorf("time went backwards: %v", v.Now())
	}
}

func TestVirtualNegativeAfter(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	v.After(-time.Hour, func() { fired = true })
	run(v)
	if !fired {
		t.Error("negative-delay event never fired")
	}
	if !v.Now().Equal(epoch) {
		t.Errorf("negative delay moved the clock: %v", v.Now())
	}
}

func TestTickerVirtual(t *testing.T) {
	v := NewVirtual(epoch)
	var ticks []time.Duration
	tk := NewTicker(v, 10*time.Minute, func(now time.Time) {
		ticks = append(ticks, now.Sub(epoch))
	})
	v.RunUntil(epoch.Add(35 * time.Minute))
	tk.Stop()
	run(v)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, d := range ticks {
		if d != time.Duration(i+1)*10*time.Minute {
			t.Errorf("tick %d at %v", i, d)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	v := NewVirtual(epoch)
	n := 0
	var tk *Ticker
	tk = NewTicker(v, time.Second, func(time.Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	run(v)
	if n != 2 {
		t.Errorf("ticker fired %d times after Stop at 2", n)
	}
}

// TestTickerTickAllocatesNothing steps a clock whose one pending event is a
// ticker's: re-arming reuses the tick bound in NewTicker and the event slot
// the tick just freed, so a tick costs no allocation.
func TestTickerTickAllocatesNothing(t *testing.T) {
	v := NewVirtual(epoch)
	n := 0
	tk := NewTicker(v, time.Second, func(time.Time) { n++ })
	defer tk.Stop()
	if allocs := testing.AllocsPerRun(100, func() { v.Step() }); allocs != 0 {
		t.Errorf("%v allocations per tick, want 0", allocs)
	}
	if n < 100 {
		t.Fatalf("ticker fired %d times", n)
	}
}

func TestPropertyVirtualTimeMonotone(t *testing.T) {
	// No matter the scheduling pattern, observed event times never decrease.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual(epoch)
		last := epoch
		ok := true
		for i := 0; i < 50; i++ {
			v.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				if v.Now().Before(last) {
					ok = false
				}
				last = v.Now()
				if rng.Intn(3) == 0 {
					v.After(time.Duration(rng.Intn(500))*time.Millisecond, func() {
						if v.Now().Before(last) {
							ok = false
						}
						last = v.Now()
					})
				}
			})
		}
		run(v)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAllUncanceledEventsRun(t *testing.T) {
	f := func(delaysMs []uint16, cancelMask []bool) bool {
		v := NewVirtual(epoch)
		want := 0
		var ids []EventID
		ran := 0
		for _, d := range delaysMs {
			ids = append(ids, v.After(time.Duration(d)*time.Millisecond, func() { ran++ }))
		}
		for i, id := range ids {
			if i < len(cancelMask) && cancelMask[i] {
				v.Cancel(id)
			}
		}
		for i := range ids {
			if !(i < len(cancelMask) && cancelMask[i]) {
				want++
			}
		}
		run(v)
		return ran == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
