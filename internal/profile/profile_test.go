package profile

import (
	"math"
	"testing"
	"time"

	"mummi/internal/stats"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

func TestProfilerSamplesOnCadence(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	frac := 0.0
	const every = 10 * time.Minute
	p := New(clk, every, func() Event {
		frac += 0.1
		return Event{GPUFrac: frac, Running: int(frac * 10)}
	})
	clk.RunFor(55 * time.Minute)
	p.Stop()
	evs := p.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5 in 55 min at 10-min cadence", len(evs))
	}
	for i, ev := range evs {
		want := epoch.Add(time.Duration(i+1) * every)
		if !ev.Time.Equal(want) {
			t.Errorf("event %d at %v, want %v", i, ev.Time, want)
		}
	}
	if math.Abs(evs[2].GPUFrac-0.3) > 1e-12 {
		t.Errorf("sample payload = %v", evs[2].GPUFrac)
	}
	// No more samples after Stop.
	clk.RunFor(time.Hour)
	if len(p.Events()) != 5 {
		t.Error("profiler sampled after Stop")
	}
}

// samples is the number of values h has counted.
func samples(h *stats.Histogram) (n int) {
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestOccupancyHistogramsAndHeadline(t *testing.T) {
	// Reconstruct Fig. 5's headline: 83% of events at >=98% GPU occupancy.
	var evs []Event
	for i := 0; i < 83; i++ {
		evs = append(evs, Event{GPUFrac: 0.999, CPUFrac: 0.5})
	}
	for i := 0; i < 17; i++ {
		evs = append(evs, Event{GPUFrac: 0.6, CPUFrac: 0.5})
	}
	gpu, cpu := OccupancyHistograms(evs, 100)
	if samples(gpu) != 100 || samples(cpu) != 100 {
		t.Fatalf("histogram samples = %d/%d", samples(gpu), samples(cpu))
	}
	frac, mean, median := Headline(evs, 98)
	if math.Abs(frac-0.83) > 1e-9 {
		t.Errorf("headline frac = %v", frac)
	}
	if mean < 90 || mean > 95 {
		t.Errorf("mean = %v", mean)
	}
	if median != 99.9 {
		t.Errorf("median = %v", median)
	}
}

func TestHeadlineEmpty(t *testing.T) {
	f, m, md := Headline(nil, 98)
	if f != 0 || m != 0 || md != 0 {
		t.Error("empty headline nonzero")
	}
}

func TestHeadlineAllZeroWindow(t *testing.T) {
	// A window where nothing ran must give finite zeros, never NaN.
	frac, mean, median := Headline([]Event{{}, {}, {}}, 98)
	if frac != 0 || mean != 0 || median != 0 {
		t.Errorf("all-zero headline = (%v, %v, %v), want zeros", frac, mean, median)
	}
}

func TestOccupancySanitizesBadSamples(t *testing.T) {
	// Non-finite and out-of-range fractions (a zero-resource topology
	// yields 0/0 upstream) must clamp instead of poisoning the figures.
	evs := []Event{
		{GPUFrac: math.NaN(), CPUFrac: math.Inf(1)},
		{GPUFrac: -0.5, CPUFrac: 2},
	}
	gpu, cpu := OccupancyHistograms(evs, 10)
	if samples(gpu) != 2 || samples(cpu) != 2 {
		t.Fatalf("histogram samples = %d/%d, want 2/2", samples(gpu), samples(cpu))
	}
	if gpu.Counts[0] != 2 {
		t.Errorf("NaN/negative GPU samples should clamp to bin 0: %v", gpu.Counts)
	}
	if cpu.Counts[9] != 2 {
		t.Errorf("Inf/200%% CPU samples should clamp to the top bin: %v", cpu.Counts)
	}
	frac, mean, median := Headline(evs, 98)
	if math.IsNaN(frac) || math.IsNaN(mean) || math.IsNaN(median) {
		t.Errorf("headline produced NaN: (%v, %v, %v)", frac, mean, median)
	}
	if median != 0 {
		t.Errorf("median = %v, want 0 after clamping", median)
	}
}
