package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/trace"
)

const smokeTrace = "../../scenarios/laptop-smoke.trace.json"

// resolveArgs parses args the way a subcommand with defaults d does and
// resolves them.
func resolveArgs(d campaignDefaults, args ...string) (campaign.Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var c campaignFlags
	c.register(fs, d)
	if err := fs.Parse(args); err != nil {
		return campaign.Config{}, err
	}
	return c.resolve()
}

func TestResolveDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		d        campaignDefaults
		scale    float64
		feedback time.Duration
	}{
		{"campaign and trace export", campaignCmd, 0.05, 30 * time.Minute},
		{"exp", expCmd, 0.25, 0},
	} {
		cfg, err := resolveArgs(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := campaign.ScaledRuns(tc.scale); !slices.Equal(cfg.Runs, want) {
			t.Errorf("%s: runs %v, want the paper schedule at scale %v: %v", tc.name, cfg.Runs, tc.scale, want)
		}
		if cfg.FeedbackEvery != tc.feedback {
			t.Errorf("%s: feedback every %v, want %v", tc.name, cfg.FeedbackEvery, tc.feedback)
		}
		if cfg.Seed != 1 || cfg.WMInstances != 1 || cfg.Scales != campaign.ThreeScale || cfg.Faults != nil {
			t.Errorf("%s: seed %d, wm instances %d, scales %q, faults %v; want 1, 1, three-scale, none",
				tc.name, cfg.Seed, cfg.WMInstances, cfg.Scales, cfg.Faults)
		}
	}
}

func TestResolveTraceIn(t *testing.T) {
	conflicts := [][2]string{
		{"-scale", "0.5"}, {"-seed", "2"}, {"-scales", "two-scale"},
		{"-feedback-every", "1h"}, {"-faults", "wm-crash:2/day"}, {"-wm-instances", "3"},
	}
	for _, d := range []campaignDefaults{campaignCmd, expCmd} {
		for _, kv := range conflicts {
			_, err := resolveArgs(d, "-trace-in", smokeTrace, kv[0], kv[1])
			if err == nil || !strings.Contains(err.Error(), "drop "+kv[0]) {
				t.Errorf("-trace-in beside %s: error %v, want it rejected by name", kv[0], err)
			}
		}
		plain, err := resolveArgs(d, "-trace-in", smokeTrace)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := resolveArgs(d, "-trace-in", smokeTrace, "-workers", "3")
		if err != nil {
			t.Fatalf("-workers beside -trace-in: %v", err)
		}
		if cfg.SelectorWorkers != 3 {
			t.Errorf("-workers 3 beside -trace-in: SelectorWorkers %d", cfg.SelectorWorkers)
		}
		cfg.SelectorWorkers = plain.SelectorWorkers
		if a, b := traceBytes(t, plain), traceBytes(t, cfg); !bytes.Equal(a, b) {
			t.Error("-workers changed more of the trace's configuration than SelectorWorkers")
		}
	}
}

func TestResolveSurfacesBuildErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scales", "four-scale"},
		{"-wm-instances", "-1"},
		{"-faults", "no-such-class:0.1"},
	} {
		if _, err := resolveArgs(campaignCmd, args...); err == nil {
			t.Errorf("%v: resolved, want Options.Build's error", args)
		}
	}
}

// traceBytes is cfg as the canonical workflow instance trace export writes.
func traceBytes(t *testing.T, cfg campaign.Config) []byte {
	t.Helper()
	tr, err := trace.FromConfig("exported", "exported by mummi-sim trace export", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceExportRoundTripsThroughTraceIn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.trace.json")
	err := runTraceExport([]string{"-scale", "0.02", "-seed", "7", "-scales", "two-scale",
		"-feedback-every", "45m", "-faults", "node-crash:8/day", "-wm-instances", "3", "-out", path})
	if err != nil {
		t.Fatal(err)
	}
	exported, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := resolveArgs(campaignCmd, "-trace-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, cfg), exported) {
		t.Error("trace export -> -trace-in resolves to a different configuration than was exported")
	}
}

// TestCGFramesFeedBack runs the component pipeline's two frame steps the
// way a user does: cg writes binary frames into a directory, and feedback
// stages every one of them and aggregates them all.
func TestCGFramesFeedBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "frames")
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()

	if err := runCG([]string{"-frames", "20", "-outdir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := runFeedback([]string{"-indir", dir}); err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(printed), "feedback: 20/20 frames aggregated") {
		t.Errorf("feedback did not aggregate all 20 frames:\n%s", printed)
	}
}
