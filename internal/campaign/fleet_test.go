package campaign

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mummi/internal/faults"
	"mummi/internal/telemetry"
)

// fleetCfg is chaosCfg reshaped for the distributed-WM fleet: three WM
// instances per allocation, a wm-crash schedule hot enough to kill an
// instance mid-feedback, and a transient-store drizzle so the lease
// traffic exercises the armor.
func fleetCfg(seed int64) (Config, *telemetry.Telemetry) {
	tel := telemetry.New(telemetry.Options{Trace: true})
	cfg := smallCfg(seed)
	cfg.Runs = []RunSpec{
		{Nodes: 4, Wall: 12 * time.Hour, Count: 1},
		{Nodes: 8, Wall: 24 * time.Hour, Count: 1},
	}
	cfg.Telemetry = tel
	cfg.FeedbackEvery = 30 * time.Minute
	cfg.WMInstances = 3
	cfg.Faults = &faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Class: faults.WMCrash, Rate: 4},
		{Class: faults.StoreTransient, Rate: 0.2},
	}}
	return cfg, tel
}

// TestFleetCampaignAdoptionEndToEnd is the tentpole acceptance test: a
// chaos campaign kills WM instances of a three-instance fleet mid-run,
// survivors adopt the orphaned couplings through expired store leases, and
// the campaign completes with no selection lost and no conductor restart
// (the single-WM wm_restarts ledger stays empty).
func TestFleetCampaignAdoptionEndToEnd(t *testing.T) {
	cfg, tel := fleetCfg(5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WMCrashes == 0 {
		t.Fatal("no WM instance crash fired; pick a different seed")
	}
	if res.WMAdoptions == 0 {
		t.Fatalf("crashes=%d but no adoptions", res.WMCrashes)
	}
	if res.LeaseExpirations == 0 {
		t.Error("adoption happened without an expired-lease takeover")
	}
	if res.WMRestarts != 0 {
		t.Errorf("fleet campaign restarted a conductor %d times", res.WMRestarts)
	}

	// Conservation across every crash/adoption.
	for _, a := range res.Anomalies {
		if strings.Contains(a, "lost selections") {
			t.Errorf("selection lost across adoption: %s", a)
		}
	}
	if res.CGSelected == 0 || res.CGTotal == 0 {
		t.Fatalf("fleet chaos starved the campaign: selected=%d cgTotal=%v",
			res.CGSelected, res.CGTotal)
	}

	// The adoption is visible in telemetry, not just the result ledger.
	reg := tel.Registry()
	if got := reg.Counter("wmfleet.wm_crashes_total").Value(); got != int64(res.WMCrashes) {
		t.Errorf("wmfleet.wm_crashes_total = %d, ledger says %d", got, res.WMCrashes)
	}
	if got := reg.Counter("wmfleet.wm_adoptions_total").Value(); got != int64(res.WMAdoptions) {
		t.Errorf("wmfleet.wm_adoptions_total = %d, ledger says %d", got, res.WMAdoptions)
	}
	if reg.Counter("wmfleet.lease_renewals_total").Value() == 0 {
		t.Error("no lease renewals recorded")
	}

	// Every crash and adoption is on the fault record.
	var crashes, adopts int
	for _, a := range res.Anomalies {
		if strings.Contains(a, "wm-crash instance=") {
			crashes++
		}
		if strings.Contains(a, "wm-adopt coupling=") {
			adopts++
		}
	}
	if crashes < res.WMCrashes || adopts < res.WMAdoptions {
		t.Errorf("fault log has %d crash / %d adopt lines, ledger says %d / %d",
			crashes, adopts, res.WMCrashes, res.WMAdoptions)
	}
}

// TestFleetSameSeedByteIdentical extends the determinism bar to the fleet:
// two same-seed fleet chaos campaigns — including the crash and adoption
// schedule — produce byte-identical metrics, traces, and anomaly logs.
func TestFleetSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte, []string, int) {
		cfg, tel := fleetCfg(42)
		cfg.Runs = []RunSpec{{Nodes: 4, Wall: 12 * time.Hour, Count: 1}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := tel.Registry().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := tel.Tracer().Export(&trace); err != nil {
			t.Fatal(err)
		}
		return metrics, trace.Bytes(), res.Anomalies, res.WMAdoptions
	}
	m1, t1, a1, ad1 := run()
	m2, t2, a2, ad2 := run()
	if !bytes.Equal(m1, m2) {
		t.Errorf("metric snapshots differ across same-seed fleet runs\nrun1: %.400s\nrun2: %.400s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace exports differ across same-seed fleet runs")
	}
	if strings.Join(a1, "\n") != strings.Join(a2, "\n") {
		t.Errorf("anomaly logs differ across same-seed fleet runs\nrun1:\n%s\nrun2:\n%s",
			strings.Join(a1, "\n"), strings.Join(a2, "\n"))
	}
	if ad1 != ad2 {
		t.Errorf("adoption counts differ: %d vs %d", ad1, ad2)
	}
	if ad1 == 0 {
		t.Error("determinism run exercised no adoption; pick a different seed")
	}
}

// TestFleetPinnedInstanceCrash: a wm-crash rule can pin its victim, and
// the pinned instance — never another — is the one that dies.
func TestFleetPinnedInstanceCrash(t *testing.T) {
	cfg, _ := fleetCfg(9)
	cfg.Runs = []RunSpec{{Nodes: 4, Wall: 12 * time.Hour, Count: 1}}
	cfg.Faults = &faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Class: faults.WMCrash, Rate: 4, Instance: 2},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WMCrashes == 0 {
		t.Fatal("pinned wm-crash never fired; pick a different seed")
	}
	for _, a := range res.Anomalies {
		if !strings.Contains(a, "wm-crash instance=") {
			continue
		}
		if !strings.Contains(a, "wm-crash instance=2 ") {
			t.Errorf("crash hit a non-pinned instance: %s", a)
		}
	}
	// Only instance 2 may die, so at most one crash per allocation sticks;
	// later fires are skipped, not redirected.
	if res.WMCrashes > 1 {
		t.Errorf("pinned rule crashed %d instances in one allocation", res.WMCrashes)
	}
}

// TestFleetOptionsValidation: the Options surface rejects a negative fleet
// size and threads a positive one through to the config.
func TestFleetOptionsValidation(t *testing.T) {
	if _, err := (Options{WMInstances: -1}).Build(); err == nil {
		t.Fatal("negative WMInstances accepted")
	}
	cfg, err := (Options{WMInstances: 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WMInstances != 3 {
		t.Fatalf("WMInstances = %d, want 3", cfg.WMInstances)
	}
	cfg, err = (Options{}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WMInstances != 1 {
		t.Fatalf("default WMInstances = %d, want 1", cfg.WMInstances)
	}
}

// TestFleetStartLeaseFailureIsAnAnomaly: on these three seeds the fault plan
// fails the fleet's initial lease acquire with a permanent store error, which
// used to abort the campaign from Fleet.Start. The campaign completes and the
// failure is on the anomaly record.
func TestFleetStartLeaseFailureIsAnAnomaly(t *testing.T) {
	for _, seed := range []int64{1, 6, 8} {
		// mummi-sim campaign -scale 0.02 -seed S -wm-instances 3 -faults ...
		cfg, err := Options{Scale: 0.02, Seed: seed, WMInstances: 3, FeedbackEvery: 30 * time.Minute,
			FaultSpec: "store-transient-error:0.10;store-permanent-error:0.01;wm-crash:2/day"}.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if !strings.Contains(strings.Join(res.Anomalies, "\n"), "initial lease for") {
			t.Errorf("seed %d: the initial lease acquire did not fail; the seed no longer tests this", seed)
		}
		if res.RunsDone != 5 {
			t.Errorf("seed %d: %d of 5 allocations ran", seed, res.RunsDone)
		}
	}
}
