package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mummi/internal/faults"
	"mummi/internal/telemetry"
)

// telemetryCfg is smallCfg with the full observability surface on: tracing,
// feedback (Task 4), and a heartbeat into buf.
func telemetryCfg(seed int64, buf *bytes.Buffer) (Config, *telemetry.Telemetry) {
	tel := telemetry.New(telemetry.Options{Trace: true})
	cfg := smallCfg(seed)
	cfg.Runs = []RunSpec{{Nodes: 4, Wall: 12 * time.Hour, Count: 1}}
	cfg.Telemetry = tel
	cfg.FeedbackEvery = 30 * time.Minute
	if buf != nil {
		cfg.HeartbeatEvery = time.Hour
		cfg.HeartbeatWriter = buf
	}
	return cfg, tel
}

func TestCampaignTelemetryEndToEnd(t *testing.T) {
	var hb bytes.Buffer
	cfg, tel := telemetryCfg(11, &hb)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// All four WM task spans plus scheduler match spans must be present —
	// the trace acceptance surface.
	names := tel.Tracer().SpanNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"task1.ingest", "task2.select", "task3.poll", "task4.feedback", "match", "select", "allocation"} {
		if !have[want] {
			t.Errorf("trace is missing span %q (have %v)", want, names)
		}
	}

	// Nonzero counters for every instrumented layer: WM tasks, scheduler,
	// datastore, selector.
	reg := tel.Registry()
	for _, name := range []string{
		"wm.candidates_total{coupling=continuum-to-cg}", // Task 1
		"wm.selections_total{coupling=continuum-to-cg}", // Task 2
		"wm.polls_total", // Task 3
		"wm.sims_launched_total{coupling=continuum-to-cg}",
		"wm.sims_completed_total{coupling=continuum-to-cg}",
		"wm.feedback_runs_total{coupling=continuum-to-cg}", // Task 4
		"wm.feedback_runs_total{coupling=cg-to-aa}",
		"sched.submitted_total",
		"sched.matches_total",
		"sched.started_total",
		"sched.completed_total",
		"store.ops_total{backend=memory,op=keys}",
		"store.ops_total{backend=memory,op=move}",
		"store.write_bytes_total{backend=memory}",
		"dynim.selected_total",
	} {
		if got := reg.Counter(name).Value(); got == 0 {
			t.Errorf("counter %s is zero", name)
		}
	}

	// The exported trace must be valid Chrome trace-event JSON.
	var out bytes.Buffer
	if err := tel.Tracer().Export(&out); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("trace suspiciously small: %d events", len(doc.TraceEvents))
	}

	// Heartbeat lines fired on the virtual clock and carry the status shape.
	lines := strings.Split(strings.TrimSpace(hb.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("expected hourly heartbeats over a 12 h run, got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "gpu=") || !strings.Contains(lines[0], "continuum-to-cg") {
		t.Errorf("heartbeat line malformed: %q", lines[0])
	}
}

// TestCampaignMetricsDeterministic runs the same seeded campaign twice and
// requires byte-identical metric snapshots — the telemetry determinism
// contract (all measurements derive from the virtual clock).
func TestCampaignMetricsDeterministic(t *testing.T) {
	snap := func() []byte {
		cfg, tel := telemetryCfg(42, nil)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		b, err := tel.Registry().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatalf("metric snapshots differ across same-seed runs\nrun1: %.400s\nrun2: %.400s", a, b)
	}
	// The traces must agree too; compare exports.
	trace := func() []byte {
		cfg, tel := telemetryCfg(42, nil)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := tel.Tracer().Export(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	ta, tb := trace(), trace()
	if !bytes.Equal(ta, tb) {
		t.Fatal("trace exports differ across same-seed runs")
	}
}

// TestFeedbackOffPreservesReplay guards the opt-in contract: a campaign
// with telemetry but no feedback must produce the exact Result an
// uninstrumented run does — observability cannot perturb the replay.
func TestFeedbackOffPreservesReplay(t *testing.T) {
	plain, err := Run(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(7)
	cfg.Telemetry = telemetry.New(telemetry.Options{Trace: true})
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	ij, err := json.Marshal(instr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, ij) {
		t.Fatal("instrumented run produced a different Result than the plain run")
	}
}

// TestNoStructurallyZeroHistogram runs feedback, a three-instance fleet and
// every fault class together and rejects any histogram that was observed
// but sums to zero: under the virtual clock synchronous code takes no time,
// so such a series times nothing.
func TestNoStructurallyZeroHistogram(t *testing.T) {
	cfg, tel := fleetCfg(7)
	cfg.Faults = faults.AggressivePlan(7)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	hists := tel.Registry().Snapshot().Histograms
	if len(hists) == 0 {
		t.Fatal("no histogram was recorded")
	}
	for _, h := range hists {
		if h.Count > 0 && h.Sum == 0 {
			t.Errorf("histogram %s: %d observations, all zero", h.Name, h.Count)
		}
	}
}
