package campaign

import (
	"fmt"
	"time"

	"mummi/internal/faults"
)

// Options is the shared CLI-facing campaign builder: the one entry point
// through which mummi-sim (campaign, exp, trace export), the trace
// layer, and the scenario-matrix runner turn flag-level knobs into a
// Config. Hoisting it here keeps the flag semantics (scale factors, fault
// plan parsing, fault-seed defaulting) identical across every command.
type Options struct {
	// Scale shrinks the paper schedule via ScaledRuns when it is in (0, 1);
	// 0 or 1 keeps the full Table 1 schedule.
	Scale float64
	// Seed is the campaign seed; it also seeds the fault plan when the plan
	// does not carry its own.
	Seed int64
	// Scales selects the scale regime; empty keeps the default (ThreeScale).
	Scales ScaleMode
	// Workers is the selector rank-update fan-out (0 = GOMAXPROCS).
	Workers int
	// FeedbackEvery is the Task-4 feedback cadence (0 = off).
	FeedbackEvery time.Duration
	// FaultSpec is the -faults flag value: a JSON plan file, inline JSON, or
	// the class:rate DSL (see faults.ParseFlag); empty means no chaos.
	FaultSpec string
	// WMInstances sizes the distributed WM fleet (0 or 1 = one workflow
	// manager; see Config.WMInstances).
	WMInstances int
}

// Build resolves the options into a campaign configuration. The returned
// Config carries no runtime attachments (telemetry, heartbeat writer);
// callers wire those afterwards.
func (o Options) Build() (Config, error) {
	cfg := DefaultConfig()
	cfg.Seed = o.Seed
	cfg.SelectorWorkers = o.Workers
	cfg.FeedbackEvery = o.FeedbackEvery
	if o.WMInstances < 0 {
		return Config{}, fmt.Errorf("campaign: wm instances must be >= 1, got %d", o.WMInstances)
	}
	if o.WMInstances > 0 {
		cfg.WMInstances = o.WMInstances
	}
	if o.Scales != "" {
		if !o.Scales.Valid() {
			return Config{}, fmt.Errorf("campaign: unknown scale mode %q", o.Scales)
		}
		cfg.Scales = o.Scales
	}
	if o.Scale > 0 && o.Scale < 1 {
		cfg.Runs = ScaledRuns(o.Scale)
	}
	if o.FaultSpec != "" {
		plan, err := faults.ParseFlag(o.FaultSpec)
		if err != nil {
			return Config{}, err
		}
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		cfg.Faults = plan
	}
	return cfg, nil
}
