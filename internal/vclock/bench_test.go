package vclock

import (
	"testing"
	"time"
)

// BenchmarkVirtualDenseSameTimestamp runs bursts of events that all fire
// at the same instant — the shape a campaign's zero-cost callbacks and
// aligned poll ticks produce — so every pop is ordered by seq alone.
func BenchmarkVirtualDenseSameTimestamp(b *testing.B) {
	const burst = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := NewVirtual(epoch)
		n := 0
		for j := 0; j < burst; j++ {
			v.After(time.Second, func() { n++ })
		}
		run(v)
		if n != burst {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkVirtualCancelHeavy models the scheduler's auto-completion
// pattern: every job arms a timer and most are canceled before firing.
// This was O(n) per cancel before the index-tracked heap.
func BenchmarkVirtualCancelHeavy(b *testing.B) {
	const pending = 20000
	b.ReportAllocs()
	ids := make([]EventID, pending)
	for i := 0; i < b.N; i++ {
		v := NewVirtual(epoch)
		for j := 0; j < pending; j++ {
			ids[j] = v.After(time.Duration(j)*time.Millisecond, func() {})
		}
		for j := 0; j < pending; j += 2 {
			if !v.Cancel(ids[j]) {
				b.Fatal("cancel failed")
			}
		}
		run(v)
	}
}

// BenchmarkVirtualSteadyChurn measures the steady-state DES loop: a rolling
// window of pending events where each firing schedules a successor — the
// event-loop shape of a long campaign replay at fixed concurrency.
func BenchmarkVirtualSteadyChurn(b *testing.B) {
	const window = 10000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NewVirtual(epoch)
		fired := 0
		var reschedule func()
		reschedule = func() {
			fired++
			if fired < 10*window {
				v.After(time.Duration(1+fired%97)*time.Millisecond, reschedule)
			}
		}
		for j := 0; j < window; j++ {
			v.After(time.Duration(j%53)*time.Millisecond, reschedule)
		}
		run(v)
	}
}
