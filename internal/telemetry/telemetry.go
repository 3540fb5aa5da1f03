// Package telemetry is mummi's stdlib-only observability layer. The paper
// attributes surviving multi-day Summit allocations to watching the
// workflow in situ (§6: job churn, selector throughput, datastore
// pressure); this package provides the equivalent instruments for the
// reproduction — a metrics registry (counters, gauges, fixed-bucket
// histograms) and a span recorder that exports Chrome trace-event JSON
// loadable in chrome://tracing or Perfetto — without leaving the standard
// library.
//
// Two properties shape the design:
//
//   - Determinism. All timestamps and durations come from one clock's Now.
//     Under the campaign's virtual clock, every measurement is a pure
//     function of the replay, so metric snapshots are byte-identical
//     across runs with the same seed and traces replay event-for-event
//     (the mummi-lint determinism contract extends to telemetry).
//     Snapshots render metrics in sorted name order for the same reason.
//   - Nil-safety at the seams. Components accept a *Telemetry in their
//     configs and substitute Nop() when absent, so the hot paths carry at
//     most an atomic add when observability is off and zero conditional
//     plumbing when it is on.
//
// See docs/OBSERVABILITY.md for the full metric and span reference and
// DESIGN.md §9 for the architecture.
package telemetry

import "time"

// Options configures a Telemetry instance.
type Options struct {
	// Clock supplies the timestamps of spans and of Now; a *vclock.Virtual
	// is one. Nil defaults to the wall clock; the campaign driver rebinds to
	// its virtual clock via SetClock so replays stay deterministic.
	Clock interface{ Now() time.Time }
	// Trace enables the span recorder, which keeps at most traceCap spans.
	// Off, StartSpan/RecordSpan are no-ops and no span memory is ever
	// allocated.
	Trace bool
}

// Telemetry bundles a metrics registry, an optional span recorder, and the
// clock they measure with. The zero value is not usable; construct with
// New or Nop.
type Telemetry struct {
	reg    *Registry
	tracer *Tracer
	clk    clockHolder
}

// New builds a Telemetry from opts.
func New(opts Options) *Telemetry {
	t := &Telemetry{reg: NewRegistry()}
	var clk nower = wallClock{}
	if opts.Clock != nil {
		clk = opts.Clock
	}
	t.clk.set(clk)
	if opts.Trace {
		t.tracer = newTracer(&t.clk, traceCap)
	}
	return t
}

// Nop returns a fresh Telemetry with tracing disabled and the wall clock: a
// working sink components fall back to when no telemetry was configured.
// Metrics written to it are recorded but never exported unless the caller
// keeps the instance.
func Nop() *Telemetry { return New(Options{}) }

// SetClock rebinds the measurement clock. The campaign driver calls it
// after constructing its virtual clock; spans recorded earlier keep the
// timestamps they were measured with.
func (t *Telemetry) SetClock(clk interface{ Now() time.Time }) {
	if clk == nil {
		return
	}
	t.clk.set(clk)
	if t.tracer != nil {
		t.tracer.rebase(clk.Now())
	}
}

// Now returns the current time on the telemetry clock.
func (t *Telemetry) Now() time.Time { return t.clk.now() }

// Registry returns the metrics registry.
func (t *Telemetry) Registry() *Registry { return t.reg }

// Tracer returns the span recorder, or nil when tracing is off.
func (t *Telemetry) Tracer() *Tracer { return t.tracer }

// Tracing reports whether spans are being recorded.
func (t *Telemetry) Tracing() bool { return t.tracer != nil }

// StartSpan opens a span at Now. It returns nil when tracing is off; a nil
// *Span accepts Arg and End as no-ops, so call sites need no guards.
func (t *Telemetry) StartSpan(cat, name string) *Span {
	if t.tracer == nil {
		return nil
	}
	return &Span{tr: t.tracer, cat: cat, name: name, start: t.clk.now()}
}

// RecordSpan records a completed span with an explicit start and duration —
// the form used when the duration is modeled (the scheduler's match cost)
// rather than measured. kv are alternating key, value argument pairs.
func (t *Telemetry) RecordSpan(cat, name string, start time.Time, dur time.Duration, kv ...any) {
	if t.tracer == nil {
		return
	}
	t.tracer.record(cat, name, start, dur, kvArgs(kv))
}
