package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/faults"
	"mummi/internal/sched"
)

// testConfig is a small hand-built campaign with every axis exercised,
// including a fault plan.
func testConfig() campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Seed = 7
	cfg.Runs = []campaign.RunSpec{{Nodes: 4, Wall: 3 * time.Hour, Count: 2}}
	cfg.Scales = campaign.TwoScale
	cfg.CGShare = 0.6
	cfg.FeedbackEvery = 20 * time.Minute
	cfg.FrameCandidateSubsample = 0.1
	cfg.SchedPolicy = sched.FirstMatch
	cfg.SchedMode = sched.Async
	cfg.Faults = &faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Class: faults.StoreTransient, Rate: 0.1},
		{Class: faults.NodeCrash, Rate: 3, Recovery: time.Hour, Start: time.Hour},
	}}
	return cfg
}

func TestExportImportExportByteIdentical(t *testing.T) {
	traces, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	extra, err := FromConfig("hand-built", "round-trip fixture", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, extra)
	for _, tr := range traces {
		b1, err := tr.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tr.Name, err)
		}
		parsed, err := Parse(b1)
		if err != nil {
			t.Fatalf("%s: parse own output: %v", tr.Name, err)
		}
		b2, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", tr.Name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: export->import->export not byte-identical", tr.Name)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := testConfig()
	tr, err := FromConfig("hand-built", "round-trip fixture", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.WithDefaults()
	// A trace records only replay semantics; the runtime attachments a
	// Config can carry (telemetry, heartbeat) are wired by the importer and
	// come back zero.
	want.Telemetry = nil
	want.HeartbeatEvery = 0
	want.HeartbeatWriter = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseRejectsOtherSchemaVersions(t *testing.T) {
	tr, err := FromConfig("fixture", "", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	v2 := bytes.Replace(b, []byte(`"mummi-trace/v1"`), []byte(`"mummi-trace/v2"`), 1)
	if _, err := Parse(v2); err == nil {
		t.Fatal("v2 trace accepted by a v1 parser")
	} else if !strings.Contains(err.Error(), "different trace version") {
		t.Errorf("v2 rejection should name the version mismatch, got: %v", err)
	}

	alien := bytes.Replace(b, []byte(`"mummi-trace/v1"`), []byte(`"wfcommons/1.4"`), 1)
	if _, err := Parse(alien); err == nil {
		t.Fatal("non-mummi schema accepted")
	} else if strings.Contains(err.Error(), "different trace version") {
		t.Errorf("foreign schema should not be reported as a version mismatch: %v", err)
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	tr, err := FromConfig("fixture", "", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	unknown := bytes.Replace(b, []byte(`"seed"`), []byte(`"surprise": 1, "seed"`), 1)
	if _, err := Parse(unknown); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse(append(append([]byte{}, b...), []byte("{}")...)); err == nil {
		t.Error("trailing document accepted")
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	mutations := map[string]func(*Trace){
		"bad name":          func(tr *Trace) { tr.Name = "Bad Name" },
		"empty topology":    func(tr *Trace) { tr.Topology = nil },
		"one node":          func(tr *Trace) { tr.Topology[0].Nodes = 1 },
		"zero wall":         func(tr *Trace) { tr.Topology[0].Wall = 0 },
		"zero count":        func(tr *Trace) { tr.Topology[0].Count = 0 },
		"bad scale mode":    func(tr *Trace) { tr.Scales.Mode = "four-scale" },
		"zero cg share":     func(tr *Trace) { tr.Scales.CGShare = 0 },
		"zero subsample":    func(tr *Trace) { tr.Workload.FrameCandidateSubsample = 0 },
		"zero mpi fraction": func(tr *Trace) { tr.Workload.MPIBugFraction = 0 },
		"zero retire mean":  func(tr *Trace) { tr.Workload.RetireMeanCGFs = 0 },
		"bad policy":        func(tr *Trace) { tr.Scheduler.Policy = "best-fit" },
		"bad mode":          func(tr *Trace) { tr.Scheduler.Mode = "half-duplex" },
		"zero poll":         func(tr *Trace) { tr.Scheduler.PollEvery = 0 },
		"all costs zero": func(tr *Trace) {
			tr.Scheduler.SubmitMsgCost = 0
			tr.Scheduler.StatusMsgCost = 0
			tr.Scheduler.VertexVisitCost = 0
		},
		"bad fault class":     func(tr *Trace) { tr.FaultPlan.Rules[0].Class = "meteor-strike" },
		"zero inventory frac": func(tr *Trace) { tr.Selection.InventoryFraction = 0 },
	}
	for name, mutate := range mutations {
		tr, err := FromConfig("fixture", "", testConfig())
		if err != nil {
			t.Fatal(err)
		}
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken trace", name)
		}
	}
}

func TestCatalogShape(t *testing.T) {
	traces, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) < 12 {
		t.Fatalf("catalog has %d scenarios, want >= 12", len(traces))
	}
	seen := map[string]bool{}
	var twoScale, faulty bool
	for _, tr := range traces {
		if seen[tr.Name] {
			t.Errorf("duplicate scenario name %q", tr.Name)
		}
		seen[tr.Name] = true
		if tr.Description == "" {
			t.Errorf("%s: catalog scenarios must say what they stress", tr.Name)
		}
		if tr.Scales.Mode == string(campaign.TwoScale) {
			twoScale = true
		}
		if tr.FaultPlan != nil {
			faulty = true
		}
	}
	if !twoScale {
		t.Error("catalog covers no two-scale scenario")
	}
	if !faulty {
		t.Error("catalog covers no fault-plan scenario")
	}
}

// TestCommittedScenariosMatchCatalog pins the files under scenarios/ to the
// catalog's output: the committed scenario set is exactly Catalog(),
// byte-for-byte (run `make scenarios` after editing catalog.go).
func TestCommittedScenariosMatchCatalog(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	traces, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, tr := range traces {
		b, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want[tr.Name+".trace.json"] = b
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s (run `make scenarios`?): %v", dir, err)
	}
	committed := map[string]bool{}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".trace.json") {
			continue
		}
		committed[e.Name()] = true
		wantB, ok := want[e.Name()]
		if !ok {
			t.Errorf("%s is committed but not in the catalog", e.Name())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantB) {
			t.Errorf("%s diverges from the catalog (run `make scenarios`)", e.Name())
		}
	}
	for name := range want {
		if !committed[name] {
			t.Errorf("catalog scenario %s is not committed (run `make scenarios`)", name)
		}
	}
}
