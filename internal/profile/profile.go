// Package profile implements MuMMI's occupancy profiling (§5.2): "MuMMI's
// profiling mechanism gathers the number of running and pending jobs every
// few minutes (for most of this campaign, profiling frequency was 10 min)",
// from which GPU and CPU occupancy distributions (Fig. 5) are derived.
package profile

import (
	"math"
	"time"

	"mummi/internal/stats"
	"mummi/internal/vclock"
)

// Event is one profile sample.
type Event struct {
	Time    time.Time
	GPUFrac float64 // fraction of GPUs allocated, 0..1
	CPUFrac float64 // fraction of CPU cores allocated, 0..1
	Running int
	Pending int
}

// Profiler samples a callback on a fixed cadence under any Clock.
type Profiler struct {
	events []Event
	ticker *vclock.Ticker
}

// New starts profiling: sample is invoked every interval and its Event
// recorded (the Time field is filled in by the profiler).
func New(clk vclock.Clock, interval time.Duration, sample func() Event) *Profiler {
	p := &Profiler{}
	p.ticker = vclock.NewTicker(clk, interval, func(now time.Time) {
		ev := sample()
		ev.Time = now
		p.events = append(p.events, ev)
	})
	return p
}

// Stop ends profiling.
func (p *Profiler) Stop() { p.ticker.Stop() }

// Events returns a copy of the samples so far.
func (p *Profiler) Events() []Event {
	return append([]Event(nil), p.events...)
}

// Add records an externally produced sample (used when merging profiles
// from several runs into one campaign-wide distribution, as Fig. 5 does).
func (p *Profiler) Add(ev Event) { p.events = append(p.events, ev) }

// clampPct sanitizes an occupancy percentage: non-finite samples (a
// zero-resource topology divides 0/0 upstream) collapse to 0 and finite
// ones clamp into [0, 100], so one bad window cannot poison a whole
// distribution.
func clampPct(pct float64) float64 {
	switch {
	case math.IsNaN(pct), pct < 0:
		return 0
	case pct > 100:
		return 100
	}
	return pct
}

// OccupancyHistograms builds the Fig. 5 distributions: percent-occupancy
// histograms over profile events for GPUs and CPUs. Samples are clamped
// into [0, 100]; non-finite fractions count as 0.
func OccupancyHistograms(events []Event, bins int) (gpu, cpu *stats.Histogram) {
	gpu = stats.NewHistogram(0, 100.000001, bins)
	cpu = stats.NewHistogram(0, 100.000001, bins)
	for _, ev := range events {
		gpu.Add(clampPct(ev.GPUFrac * 100))
		cpu.Add(clampPct(ev.CPUFrac * 100))
	}
	return gpu, cpu
}

// Headline computes the paper's headline statistics from profile events:
// the fraction of time GPU occupancy was at least the given percent
// threshold, plus mean and median occupancy percentages.
func Headline(events []Event, thresholdPct float64) (fracAtLeast, meanPct, medianPct float64) {
	if len(events) == 0 {
		return 0, 0, 0
	}
	var s stats.Summary
	vals := make([]float64, 0, len(events))
	at := 0
	for _, ev := range events {
		pct := clampPct(ev.GPUFrac * 100)
		s.Add(pct)
		vals = append(vals, pct)
		if pct >= thresholdPct {
			at++
		}
	}
	return float64(at) / float64(len(events)), s.Mean(), stats.Median(vals)
}
