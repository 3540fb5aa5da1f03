package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mummi/internal/dynim"
	"mummi/internal/sched"
	"mummi/internal/units"
	"mummi/internal/vclock"
)

// smallCfg is a laptop-scale campaign: 3 allocations on a few nodes with
// fast scheduling so tests stay quick.
func smallCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Runs = []RunSpec{
		{Nodes: 4, Wall: 12 * time.Hour, Count: 1},
		{Nodes: 8, Wall: 24 * time.Hour, Count: 2},
	}
	cfg.PatchesPerSnapshot = 20
	cfg.PatchQueueCap = 500
	cfg.SubmitPerMinute = 300
	cfg.SchedPolicy = sched.FirstMatch
	cfg.SchedMode = sched.Async
	cfg.ModelStatusLoad = false
	cfg.FrameCandidateSubsample = 1.0
	// Short simulations so several complete within the runs.
	cfg.RetireMeanCG = 300 * units.Nanosecond
	cfg.RetireMeanAA = 5 * units.Nanosecond
	return cfg
}

func TestSmallCampaignEndToEnd(t *testing.T) {
	res, err := Run(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.RunsDone != 3 {
		t.Errorf("RunsDone = %d", res.RunsDone)
	}
	wantNH := units.NodeHoursFor(4, 12*time.Hour) + 2*units.NodeHoursFor(8, 24*time.Hour)
	if res.TotalNodeHours != wantNH {
		t.Errorf("TotalNodeHours = %v, want %v", res.TotalNodeHours, wantNH)
	}
	if res.Snapshots == 0 || res.Patches == 0 {
		t.Fatalf("no continuum data: snapshots=%d patches=%d", res.Snapshots, res.Patches)
	}
	if res.Patches != int64(res.Snapshots*20) {
		t.Errorf("patches = %d for %d snapshots", res.Patches, res.Snapshots)
	}
	if res.CGSelected == 0 {
		t.Fatal("no CG simulations selected")
	}
	if res.CGSelected > int(res.Patches) {
		t.Error("selected more CG sims than patches")
	}
	if len(res.CGLengthsUs) == 0 {
		t.Fatal("no CG simulation lengths recorded")
	}
	for _, l := range res.CGLengthsUs {
		if l < 0 || l > 5.0001 {
			t.Fatalf("CG length %v µs outside [0, 5]", l)
		}
	}
	for _, l := range res.AALengthsNs {
		if l < 0 || l > 65.0001 {
			t.Fatalf("AA length %v ns outside [0, 65]", l)
		}
	}
	// Conservation: recorded lengths sum to the totals.
	var sum float64
	for _, l := range res.CGLengthsUs {
		sum += l
	}
	if diff := sum - res.CGTotal.Microseconds(); diff > 0.01 || diff < -0.01 {
		t.Errorf("CG lengths sum %v != total %v", sum, res.CGTotal.Microseconds())
	}
	if res.CGFrames == 0 || res.CGFrameCandidates == 0 {
		t.Errorf("no CG frames/candidates: %d/%d", res.CGFrames, res.CGFrameCandidates)
	}
	if res.Files == 0 || res.Bytes == 0 {
		t.Error("empty data ledger")
	}
	if len(res.ProfileEvents) == 0 {
		t.Fatal("no profile events")
	}
	// 60 hours of profiling at 10-minute cadence.
	if got := len(res.ProfileEvents); got < 350 || got > 362 {
		t.Errorf("profile events = %d, want ~360", got)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := Run(smallCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.CGSelected != b.CGSelected || a.AASelected != b.AASelected ||
		a.Snapshots != b.Snapshots || a.CGFrameCandidates != b.CGFrameCandidates ||
		a.CGTotal != b.CGTotal || a.Files != b.Files {
		t.Errorf("same seed diverged:\n%+v\n%+v", summary(a), summary(b))
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	a, _ := Run(smallCfg(1))
	b, _ := Run(smallCfg(2))
	if a.CGTotal == b.CGTotal && a.CGSelected == b.CGSelected && a.Files == b.Files {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestSimulationsResumeAcrossRuns(t *testing.T) {
	// Long sims (mean ≈ cap, 5 µs ≈ 4.8 days) cannot finish inside a 24 h
	// allocation; completions require checkpoint-resume across runs.
	cfg := smallCfg(5)
	cfg.RetireMeanCG = 100 * units.Microsecond // effectively always 5 µs target
	cfg.Runs = []RunSpec{{Nodes: 4, Wall: 24 * time.Hour, Count: 7}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, l := range res.CGLengthsUs {
		if l > 4.999 {
			full++
		}
	}
	if full == 0 {
		t.Errorf("no CG sim reached 5 µs across 7 days (lengths: n=%d, max=%v)",
			len(res.CGLengthsUs), maxOf(res.CGLengthsUs))
	}
	// And progress is strictly more than one allocation could deliver:
	// 4 nodes × 24 GPUs... (4 nodes × 6 GPUs × 0.8 share ≈ 19 slots) at
	// ~1.04 µs/day each → >7 days of slot-time must show up in totals.
	if res.CGTotal < 50*units.Microsecond {
		t.Errorf("CG total %v too small for a 7-day campaign", res.CGTotal)
	}
}

func TestOccupancyReachesSteadyState(t *testing.T) {
	cfg := smallCfg(9)
	// Realistic simulation lengths (≈1 µs ≈ a day of GPU time): the setup
	// pipeline easily keeps up, as in the real campaign. The very short
	// sims in smallCfg would demand more setup throughput than one
	// 24-core setup slot per node can deliver — a real design limit.
	cfg.RetireMeanCG = units.Microsecond
	cfg.RetireMeanAA = 40 * units.Nanosecond
	cfg.Runs = []RunSpec{{Nodes: 8, Wall: 72 * time.Hour, Count: 1}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the load phase, GPU occupancy should be high; check the last
	// quarter of profile events.
	evs := res.ProfileEvents
	tail := evs[3*len(evs)/4:]
	var mean float64
	for _, ev := range tail {
		mean += ev.GPUFrac
	}
	mean /= float64(len(tail))
	if mean < 0.7 {
		t.Errorf("steady-state GPU occupancy = %.2f, want > 0.7", mean)
	}
}

func TestTimelinesCaptured(t *testing.T) {
	cfg := smallCfg(2)
	cfg.Runs = []RunSpec{
		{Nodes: 1000, Wall: time.Hour, Count: 1}, // captured as "1000-node"
	}
	cfg.PatchesPerSnapshot = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline1000) == 0 {
		t.Fatal("1000-node timeline not captured")
	}
	for i := 1; i < len(res.Timeline1000); i++ {
		if res.Timeline1000[i].Offset < res.Timeline1000[i-1].Offset {
			t.Fatal("timeline out of order")
		}
	}
}

func TestReportRendering(t *testing.T) {
	res, err := Run(smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table1Text(), "node hours") {
		t.Error("Table1Text malformed")
	}
	if !strings.Contains(res.Fig3Text(), "Fig 3 (CG)") {
		t.Error("Fig3Text malformed")
	}
	if !strings.Contains(res.Fig4Text(), "ms/day") {
		t.Error("Fig4Text malformed")
	}
	if !strings.Contains(res.Fig5Text(), "GPU occupancy") {
		t.Error("Fig5Text malformed")
	}
	if !strings.Contains(res.Fig6Text(), "Fig 6") {
		t.Error("Fig6Text malformed")
	}
	if !strings.Contains(res.CountsText(), "CG sims selected") {
		t.Error("CountsText malformed")
	}
}

func TestScaledRuns(t *testing.T) {
	full := PaperRuns()
	var nh units.NodeHours
	for _, r := range full {
		nh += r.NodeHours()
	}
	if nh != 600600 {
		t.Errorf("paper schedule = %v node-hours, want 600600", nh)
	}
	small := ScaledRuns(0.1)
	if len(small) != len(full) {
		t.Errorf("scaled schedule lost rows")
	}
	for i, r := range small {
		if r.Nodes >= full[i].Nodes && full[i].Nodes > 20 {
			t.Errorf("row %d not scaled down: %+v", i, r)
		}
		if r.Count < 1 || r.Nodes < 2 {
			t.Errorf("row %d degenerate: %+v", i, r)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Runs: []RunSpec{}}); err == nil {
		// withDefaults fills nil Runs but an explicitly empty schedule is
		// an error.
		t.Error("empty schedule accepted")
	}
}

func summary(r *Result) map[string]int64 {
	return map[string]int64{
		"cg":    int64(r.CGSelected),
		"aa":    int64(r.AASelected),
		"snap":  int64(r.Snapshots),
		"cand":  r.CGFrameCandidates,
		"files": r.Files,
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestFailureInjectionResubmitsWithoutLosingProgress(t *testing.T) {
	cfg := smallCfg(13)
	cfg.RetireMeanCG = units.Microsecond
	cfg.Runs = []RunSpec{{Nodes: 8, Wall: 72 * time.Hour, Count: 1}}
	cfg.FailuresPerDay = 24 // aggressive: ~one failure per hour offered
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedFailures == 0 {
		t.Fatal("no failures injected at 24/day over 3 days")
	}
	// The campaign still makes normal progress: lengths recorded, totals
	// conserved (progress banked at failure, resumed afterwards).
	if len(res.CGLengthsUs) == 0 || res.CGTotal == 0 {
		t.Fatalf("campaign stalled under failures: %d lengths", len(res.CGLengthsUs))
	}
	var sum float64
	for _, l := range res.CGLengthsUs {
		sum += l
	}
	if diff := sum - res.CGTotal.Microseconds(); diff > 0.01 || diff < -0.01 {
		t.Errorf("length/total conservation broken under failures: %v vs %v",
			sum, res.CGTotal.Microseconds())
	}
	for _, l := range res.CGLengthsUs {
		if l > 5.0001 {
			t.Fatalf("failure handling exceeded the 5 µs cap: %v", l)
		}
	}
}

// refusingSelector fails every Add and notes when it first refused; the
// rest is the embedded selector.
type refusingSelector struct {
	dynim.Selector
	clk     *vclock.Virtual
	refused time.Time
}

func (r *refusingSelector) Add(dynim.Point) error {
	if r.refused.IsZero() {
		r.refused = r.clk.Now()
	}
	return errRefused
}

var errRefused = errors.New("selector refuses candidates")

// A selector error raised inside a clock callback (the snapshot stream)
// must come back from Run as an error, not take the process down, and must
// stop the campaign at that event.
func TestSelectorErrorFailsRunWithoutPanic(t *testing.T) {
	c, err := NewCampaign(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	sel := &refusingSelector{Selector: c.patchSel, clk: c.clk}
	c.patchSel = sel
	res, err := c.Run()
	if !errors.Is(err, errRefused) {
		t.Fatalf("Run = %v, %v; want the selector's error", res, err)
	}
	if sel.refused.IsZero() || !c.clk.Now().Equal(sel.refused) {
		t.Errorf("campaign stopped at %v; the first refused Add was at %v", c.clk.Now(), sel.refused)
	}
}

// TestStepObserver drives a campaign by Step, as a harness-side observer
// would: between Steps virtual time never goes back, and each allocation
// adds exactly one to RunsDone and one row to Table 1.
func TestStepObserver(t *testing.T) {
	c, err := NewCampaign(smallCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	last := c.clk.Now()
	var ends []time.Time
	for c.Step() {
		now := c.clk.Now()
		if now.Before(last) {
			t.Fatalf("virtual time went back from %v to %v", last, now)
		}
		last = now
		if done := c.res.RunsDone; done != len(ends) {
			if done != len(ends)+1 || len(c.res.Table1) != done {
				t.Fatalf("after %d allocations: RunsDone %d, %d Table 1 rows", len(ends), done, len(c.res.Table1))
			}
			ends = append(ends, now)
		}
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(ends) != 3 {
		t.Fatalf("%d allocations ended, want 3", len(ends))
	}
	at := Epoch
	for i, spec := range c.schedule {
		if at = at.Add(spec.Wall); !ends[i].Equal(at) {
			t.Errorf("allocation %d ended at %v, want %v", i+1, ends[i], at)
		}
	}
}

// TestPatchIDsAscend pins the traffic the patch selector's dedupe is fast
// on: FarthestPoint.Add admits an ID above every ID it has admitted after one
// comparison, and checks one at or below that mark against its whole queue.
// Patches are offered in (snapshot, patch) order, and appendPatchID's bytes
// sort in that order while a snapshot yields at most 1,000 patches and the
// campaign cuts fewer than 10^7 snapshots (the paper's full campaign cuts
// 20,507). At 1,000 patches or 10^7 snapshots a field outgrows its padding
// and the order breaks: selections stay exact, but every offer after the
// break that sorts below the mark pays a queue scan.
func TestPatchIDsAscend(t *testing.T) {
	type patch struct{ snap, i int }
	id := func(p patch) string { return string(appendPatchID(nil, p.snap, p.i)) }
	var inside []patch
	for _, snap := range []int{1, 2, 999_999, 1_000_000, 9_999_998, 9_999_999} {
		for _, i := range []int{0, 1, 9, 10, 99, 100, 998, 999} {
			inside = append(inside, patch{snap, i})
		}
	}
	for k := 1; k < len(inside); k++ {
		if a, b := id(inside[k-1]), id(inside[k]); a >= b {
			t.Errorf("patch %v = %q sorts at or above the next patch %v = %q", inside[k-1], a, inside[k], b)
		}
	}
	// The domain's ends: the next patch sorts below the one before it.
	for _, edge := range [][2]patch{
		{{1, 999}, {1, 1000}},
		{{9_999_999, 0}, {10_000_000, 0}},
	} {
		if a, b := id(edge[0]), id(edge[1]); a < b {
			t.Errorf("patch %v = %q sorts below %v = %q; the ascending domain ends later than documented", edge[0], a, edge[1], b)
		}
	}
	// Every yield the tree configures: DefaultConfig and every scenario
	// (333), bench's replay-coord and replay-chaos (10), mummi-sim's
	// experiments (20) and examples/threescale (40).
	if got := DefaultConfig().PatchesPerSnapshot; got != 333 {
		t.Errorf("DefaultConfig().PatchesPerSnapshot = %d, not in the list below", got)
	}
	for _, yield := range []int{10, 20, 40, 333} {
		prev := id(patch{1, 0})
		for k := 1; k < 2*yield; k++ {
			next := id(patch{1 + k/yield, k % yield})
			if next <= prev {
				t.Errorf("yield %d: %q follows %q; it leaves the ascending domain", yield, next, prev)
				break
			}
			prev = next
		}
	}
}

// TestRecordKeysMatchSprintf pins the feedback-record key and the
// frame-candidate ID to the formats they replaced, including what Sprintf
// prints once a number outgrows its padding (fbSeq ≥ 10^12, candidate index
// ≥ 10^6).
func TestRecordKeysMatchSprintf(t *testing.T) {
	for _, seq := range []int64{0, 1, 42, 999_999_999_999, 1_000_000_000_000, 1<<63 - 1} {
		want := fmt.Sprintf("f%012d", seq)
		if got := string(appendFeedbackKey(nil, seq)); got != want {
			t.Errorf("appendFeedbackKey(%d) = %q, want %q", seq, got, want)
		}
	}
	for _, simID := range []string{"cg:p0000001_000", "cg:p9999999_332", ""} {
		for _, i := range []int64{0, 7, 999_999, 1_000_000, 123_456_789_012} {
			want := fmt.Sprintf("%s_c%06d", simID, i)
			if got := string(appendFrameID(nil, simID, i)); got != want {
				t.Errorf("appendFrameID(%q, %d) = %q, want %q", simID, i, got, want)
			}
		}
	}
}

// TestPatchIDMatchesSprintf pins appendPatchID to the format it replaced,
// including what Sprintf prints once a field outgrows its padding.
func TestPatchIDMatchesSprintf(t *testing.T) {
	for _, snap := range []int{0, 1, 9_999_999, 10_000_000} {
		for _, i := range []int{0, 7, 999, 1000} {
			want := fmt.Sprintf("p%07d_%03d", snap, i)
			if got := string(appendPatchID(nil, snap, i)); got != want {
				t.Errorf("appendPatchID(%d, %d) = %q, want %q", snap, i, got, want)
			}
		}
	}
}

// TestActiveSetMatchesOracle holds activeSet to the map and sorted-ID sweep
// it replaced: random puts (IDs ascending with gaps, as setup jobs take IDs
// between simulations, growing far past the first size), re-puts of live
// IDs (the hang handler's), removes of live, absent and never-seen IDs, and
// an allocation boundary (the set reset in place) after which the previous
// scheduler's IDs — above every new ID or colliding with one — are removed. After every operation
// the ascending sweep and a victim draw must match the oracle's, with the
// same rng draws.
func TestActiveSetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s activeSet
	oracle := map[sched.JobID]activeJob{}
	var next sched.JobID // the scheduler's last ID
	grown := 0           // the largest index the set reached
	sorted := func() []sched.JobID {
		ids := make([]sched.JobID, 0, len(oracle))
		for id := range oracle {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(20); {
		case r < 8: // a simulation starts
			next += sched.JobID(1 + rng.Intn(3))
			aj := activeJob{simID: fmt.Sprintf("cg:p%d", next), start: Epoch.Add(time.Duration(op))}
			s.put(next, aj)
			oracle[next] = aj
		case r < 10 && len(oracle) > 0: // a live job is re-put
			ids := sorted()
			id := ids[rng.Intn(len(ids))]
			aj := activeJob{simID: oracle[id].simID, start: Epoch.Add(time.Duration(op))}
			s.put(id, aj)
			oracle[id] = aj
		case r < 18: // a job ends: live, absent, or never seen
			id := sched.JobID(rng.Intn(int(next) + 20))
			s.remove(id)
			delete(oracle, id)
		case r < 19: // the allocation ends
			prev := next
			s.reset() // in place, as end does
			oracle, next = map[sched.JobID]activeJob{}, 0
			for range 1 + rng.Intn(10) {
				next++
				aj := activeJob{simID: fmt.Sprintf("aa:f%d", next)}
				s.put(next, aj)
				oracle[next] = aj
			}
			// Late ends of the previous scheduler's jobs, above every new
			// ID or colliding with one.
			for range 5 {
				id := 1 + sched.JobID(rng.Intn(int(prev)+1))
				s.remove(id)
				delete(oracle, id)
			}
		default: // a failure tick draws a victim
			seed := rng.Int63()
			got := s.pick(rand.New(rand.NewSource(seed)))
			var want sched.JobID
			if ids := sorted(); len(ids) > 0 {
				want = ids[rand.New(rand.NewSource(seed)).Intn(len(ids))]
			}
			if got != want {
				t.Fatalf("op %d: pick = %d, want %d", op, got, want)
			}
		}
		walked := s.ascending()
		for _, id := range walked {
			if got, ok := s.get(id); !ok || got != oracle[id] {
				t.Fatalf("op %d: job %d = %+v, want %+v", op, id, got, oracle[id])
			}
		}
		if want := sorted(); !slices.Equal(walked, want) || s.jobs.Len() != len(want) {
			t.Fatalf("op %d: sweep %v (%d records), want %v", op, walked, s.jobs.Len(), want)
		}
		grown = max(grown, s.live.Len())
		for _, id := range []sched.JobID{0, -1, next + 1, next + 1000} {
			if _, ok := s.get(id); ok {
				t.Fatalf("op %d: get(%d) found a job", op, id)
			}
		}
	}
	if grown < 64 {
		t.Fatalf("the index never grew past %d IDs", grown)
	}
}
