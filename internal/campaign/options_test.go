package campaign

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestOptionsBuild(t *testing.T) {
	cfg, err := Options{Scale: 0.05, Seed: 9, FeedbackEvery: time.Hour}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.FeedbackEvery != time.Hour {
		t.Errorf("seed/feedback not applied: %d, %v", cfg.Seed, cfg.FeedbackEvery)
	}
	if !reflect.DeepEqual(cfg.Runs, ScaledRuns(0.05)) {
		t.Error("scale 0.05 should select the scaled schedule")
	}
	if cfg.Scales != ThreeScale {
		t.Errorf("empty Scales should default to three-scale, got %q", cfg.Scales)
	}

	full, err := Options{Scale: 1.0, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Runs, DefaultConfig().Runs) {
		t.Error("scale 1.0 should keep the full paper schedule")
	}

	// A scale outside [0, 1] is an error, not the full campaign.
	for _, scale := range []float64{-3, -0.25, 1.0001, 7, math.NaN(), math.Inf(1)} {
		if _, err := (Options{Scale: scale, Seed: 1}).Build(); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	for _, scale := range []float64{0, 1} {
		cfg, err := Options{Scale: scale, Seed: 1}.Build()
		if err != nil || !reflect.DeepEqual(cfg.Runs, DefaultConfig().Runs) {
			t.Errorf("scale %v: err %v; want the full paper schedule", scale, err)
		}
	}

	if _, err := (Options{Seed: 1, Scales: "four-scale"}).Build(); err == nil {
		t.Error("invalid scale mode accepted")
	}
	if _, err := (Options{Seed: 1, FaultSpec: "bogus-class:1"}).Build(); err == nil {
		t.Error("invalid fault spec accepted")
	}

	cfg, err = Options{Seed: 4, FaultSpec: "node-crash:2"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || cfg.Faults.Seed != 4 {
		t.Errorf("fault plan should inherit the campaign seed, got %+v", cfg.Faults)
	}
}
