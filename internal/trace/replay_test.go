package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/telemetry"
)

// runWithMetrics replays cfg with a fresh telemetry registry attached and
// returns the result, its JSON and the metrics snapshot's JSON.
func runWithMetrics(t *testing.T, cfg campaign.Config) (*campaign.Result, []byte, []byte) {
	t.Helper()
	tel := telemetry.New(telemetry.Options{})
	cfg.Telemetry = tel
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := tel.Registry().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return res, resJSON, metrics
}

// TestImportedTraceReplaysHandConfig is the replay-equivalence gate: a
// campaign configured by hand and the same campaign round-tripped through
// export→import produce byte-identical results and metrics snapshots, and
// the same Fig. 6 placement timeline (which the result's JSON leaves out).
func TestImportedTraceReplaysHandConfig(t *testing.T) {
	cfg := campaign.DefaultConfig()
	cfg.Seed = 3
	cfg.Runs = []campaign.RunSpec{
		{Nodes: 2, Wall: 2 * time.Hour, Count: 1},
		{Nodes: 1000, Wall: time.Hour, Count: 1},
	}
	cfg.FrameCandidateSubsample = 0.05
	cfg.FeedbackEvery = 30 * time.Minute

	tr, err := FromConfig("equivalence", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	importedCfg, err := imported.Config()
	if err != nil {
		t.Fatal(err)
	}

	want, wantRes, wantMetrics := runWithMetrics(t, cfg)
	got, gotRes, gotMetrics := runWithMetrics(t, importedCfg)
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("imported replay result diverged from hand-configured replay:\nhand:     %s\nimported: %s",
			wantRes, gotRes)
	}
	if !bytes.Equal(wantMetrics, gotMetrics) {
		t.Error("imported replay metrics snapshot diverged from hand-configured replay")
	}
	if len(want.Timeline1000) == 0 {
		t.Fatal("the 1000-node allocation recorded no placement timeline")
	}
	if !reflect.DeepEqual(got.Timeline1000, want.Timeline1000) || !reflect.DeepEqual(got.Timeline4000, want.Timeline4000) {
		t.Errorf("imported replay timelines diverged: %d/%d points, hand-configured %d/%d",
			len(got.Timeline1000), len(got.Timeline4000), len(want.Timeline1000), len(want.Timeline4000))
	}
}

// TestTwoScaleReplay pins the two-scale regime's semantics: deterministic
// across replays, snapshots still streamed, and no continuum accounting
// (no continuum job runs in the mini-MuMMI stack).
func TestTwoScaleReplay(t *testing.T) {
	cfg := campaign.DefaultConfig()
	cfg.Seed = 11
	cfg.Runs = []campaign.RunSpec{{Nodes: 8, Wall: 6 * time.Hour, Count: 1}}
	cfg.Scales = campaign.TwoScale
	cfg.FrameCandidateSubsample = 0.2

	_, res1, m1 := runWithMetrics(t, cfg)
	_, res2, m2 := runWithMetrics(t, cfg)
	if !bytes.Equal(res1, res2) || !bytes.Equal(m1, m2) {
		t.Fatal("two-scale replay is not deterministic")
	}

	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshots == 0 {
		t.Error("two-scale replay streamed no archived snapshots")
	}
	if res.ContinuumTotal != 0 {
		t.Errorf("two-scale replay accumulated continuum time %v; no continuum job should run", res.ContinuumTotal)
	}
	if res.Patches == 0 || res.CGSelected == 0 {
		t.Errorf("two-scale replay should still drive CG selection (patches %d, selected %d)",
			res.Patches, res.CGSelected)
	}
}
