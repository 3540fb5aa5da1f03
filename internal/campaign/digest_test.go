package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"mummi/internal/faults"
	"mummi/internal/telemetry"
)

// TestResultDigestsPinned holds every coordination path of the allocation
// rig to recorded bytes: sha256 of json.Marshal(Result), of the Result's
// per-sample series (which that JSON omits), of the metrics snapshot, of the
// Chrome trace export, and of the heartbeat stream. The constants were
// recorded at c0702be, the commit before the solo and fleet rigs were folded
// into one, so a change to the rig, the coordinators, the couplings or the
// store stack that moves a single event shows up here — in particular on the
// solo restart path, which no committed scenario ledger reaches (wm_restarts
// is 0 in all of them). The two fleet cases' metrics digests were re-recorded
// when the write-only selector blob left the checkpoint record: a fleet
// flushes records through the instrumented store, so store.write_bytes_total
// and store.read_bytes_total fell; no other series and no other digest moved.
// Every case's metrics digest was re-recorded again when the histograms that
// timed synchronous code on the virtual clock (count > 0, sum 0: wm.poll_ms,
// wm.lock_wait_ms, wm.lock_hold_ms, wm.select_ms, wm.feedback_ms,
// dynim.select_ms, dynim.rank_refresh_ms, store.op_ms) were deleted; every
// remaining series and every other digest held. The two fleet cases'
// metrics digests were re-recorded once more when the checkpoint record
// became binary: only store.write_bytes_total and store.read_bytes_total
// moved.
func TestResultDigestsPinned(t *testing.T) {
	twoAllocs := []RunSpec{
		{Nodes: 4, Wall: 12 * time.Hour, Count: 1},
		{Nodes: 8, Wall: 24 * time.Hour, Count: 1},
	}
	cases := []struct {
		name  string
		cfg   func() Config
		check func(t *testing.T, res *Result)
		want  [5]string // result, series, metrics, trace, heartbeat
	}{
		{
			name: "solo-calm",
			cfg:  func() Config { return smallCfg(3) },
			want: [5]string{
				"3ec1bb862ae7694efa168f8ad300140e0ed65ba9d01cd2c1db30a56c12923665",
				"ca73112813f6bc27fc0ffefc1edbbffc9a69d615faef0626b7eba9ca455a47a0",
				"96d616f15d8fc8d74f5f6b857fe51c5524cf54b7ffd5d48a69368740c9c29d6b",
				"91e160ca6c262b9008bf20dd85d076f4092e19b6818b51db0c355ca9a2525acd",
				"ae5b42a809aa3654c9bd0ff15a34b25d7edb209bf5d6295b349c386f24b68613",
			},
		},
		{
			name: "solo-failures",
			cfg: func() Config {
				cfg := smallCfg(3)
				cfg.FailuresPerDay = 24
				return cfg
			},
			check: func(t *testing.T, res *Result) {
				if res.InjectedFailures == 0 {
					t.Error("no failure was injected")
				}
			},
			want: [5]string{
				"c3a8071dfc29b4174c33520ea7f8bae71ca824df25da5c8da84843a3b6d1c7ee",
				"63f6f71416a4cc89f1931da0a9bafe3f665ea007cbfb7bb3a5a3900635acb860",
				"043738df0d4b721ec4eeaeb9d3f3423f11fc464467be5dc39d4bffb1a2a0d151",
				"be0a8b2c5b5a6739233d9eca3c0be89d0dbe0b68fa04222bbcd6fca62ced6e12",
				"90ee0d77d55e7abc1319efc77d8b06ea69cf6e50e020898bdae0d22c673549ec",
			},
		},
		{
			name: "two-scale",
			cfg: func() Config {
				cfg := smallCfg(3)
				cfg.Scales = TwoScale
				return cfg
			},
			want: [5]string{
				"272d0e30bea9e25c5a6f447b1c93d01629ae5f1f0107f18b9bec18f953488aaf",
				"5ba3ce895008160565ec7795d62353130c53b50e17b57b28d81706650606bde5",
				"c3163ca083b2c27bd386e4284a372700c14ce00e178e47f342ed553c7e3018b2",
				"966af895e52ccca7732f0b3c845ceb0e62a50017ff5652b8b1145f306cfbaa5a",
				"531450f57cc9eec1b5dd4121959af38dab52ae86196ff386165471c4e8fde8ae",
			},
		},
		{
			name: "solo-chaos-restart",
			cfg: func() Config {
				cfg, _ := chaosCfg(5)
				return cfg
			},
			check: func(t *testing.T, res *Result) {
				if res.WMRestarts == 0 {
					t.Error("the restart path was not reached")
				}
			},
			want: [5]string{
				"1f4698c9a7964e98c0edf5c06f53a02bc6f5104d1f9ecda2d1492d9760767d7b",
				"fa16545fc6d6cab94f1eafbc607f25c82f27f82d102f184b0b8420223e359a81",
				"a3c4e56454814b74a3165e174ade2aa459a809bcaf26f9ae1236bc33490bba68",
				"1f05f3ca1bcd1c670271b799b18e5ac0821712ef3b6848e0198bef99a38cf8ec",
				"ebbdbb35fa2ead0009e003de184b13a9b4b05d2e3d4fcb2945afc139bacc3e5e",
			},
		},
		{
			// No feedback: the fleet's leases travel over its own store stack.
			name: "fleet-chaos-adopt",
			cfg: func() Config {
				cfg := smallCfg(5)
				cfg.Runs = twoAllocs
				cfg.WMInstances = 3
				cfg.Faults = &faults.Plan{Seed: 5, Rules: []faults.Rule{
					{Class: faults.WMCrash, Rate: 4},
					{Class: faults.StoreTransient, Rate: 0.2},
					{Class: faults.NodeCrash, Rate: 4, Recovery: time.Hour},
					{Class: faults.JobHang, Rate: 6},
				}}
				return cfg
			},
			check: func(t *testing.T, res *Result) {
				if res.WMAdoptions == 0 {
					t.Error("no coupling was adopted")
				}
			},
			want: [5]string{
				"ec0573259dd32b2b44ead1e4b397df1f2690559e20e461070b6c412140880547",
				"8491d09b0e7e29d0729a8781dbcaa4c590e939114160583e4ddb3b7822eabede",
				"9f228898738555e5ae766211b5a84ffa56eb98066bc4f4402ec7a08c930a8d15", // re-recorded, see above
				"35c6e6ffe0c3117f1db6455e78e6c587adb90402bbaea7adec266ff4f298103b",
				"ff811b66209d747edfc1fa3c6a7ae9753f871a325220ee8de4cad9893ec072ae",
			},
		},
		{
			// Feedback on: leases share the feedback loop's store stack.
			name: "fleet-feedback",
			cfg: func() Config {
				cfg, _ := fleetCfg(5)
				cfg.FailuresPerDay = 24
				return cfg
			},
			check: func(t *testing.T, res *Result) {
				if res.WMAdoptions == 0 || res.InjectedFailures == 0 {
					t.Errorf("adoptions=%d injected failures=%d", res.WMAdoptions, res.InjectedFailures)
				}
			},
			want: [5]string{
				"74ed8441e0558b039b0aad0928913c9e4765f60c76b307e3759104a1a6534b61",
				"d452078f9823a50a9aa5f7994579746f4cd1c974b463d9f47fc84ec7b0b798cb",
				"36ba89b0e983883da30f5ec5a50c9642a4d44073304c25f6ec8eeca635799aa9", // re-recorded, see above
				"19e051c87714a4450a67803a88865a610220ca4431c557f5e224b6a2cd49b397",
				"6382eca982a29738e4da4446ecbf76d830a77fe08cb23c4d3113a066d0476589",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			tel := telemetry.New(telemetry.Options{Trace: true})
			var hb bytes.Buffer
			cfg.Telemetry = tel
			cfg.HeartbeatEvery = 2 * time.Hour
			cfg.HeartbeatWriter = &hb
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
			resJSON, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			series, err := json.Marshal([]any{res.CGLengthsUs, res.AALengthsNs, res.ContinuumPerf,
				res.CGPerf, res.AAPerf, res.ProfileEvents, res.Timeline1000, res.Timeline4000})
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
			got := [5]string{digest(resJSON), digest(series), digest(metrics), digest(trace.Bytes()), digest(hb.Bytes())}
			if got != tc.want {
				t.Errorf("digests moved\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
