package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mummi/internal/campaign"
)

func TestAttributionRule(t *testing.T) {
	const ms = int64(time.Millisecond)
	stacks := []stack{
		// Innermost mummi frame wins; runtime and sort above it are its cost.
		{cpuNS: 10 * ms, frames: []string{"runtime.memmove", "sort.pdqsort_func",
			"mummi/internal/dynim.(*FarthestPoint).refreshSlot", "mummi/internal/dynim.(*QueueSet).Add",
			"mummi/internal/campaign.(*Campaign).onSnapshot", "mummi/internal/vclock.(*Virtual).Run", "main.childReplay"}},
		// Helper packages are skipped over to their caller, here a dynim closure.
		{cpuNS: 20 * ms, frames: []string{"mummi/internal/knn.sqDist", "mummi/internal/parallel.(*Pool).run.func1",
			"mummi/internal/dynim.(*FarthestPoint).refreshDirty.func1", "mummi/internal/parallel.(*Pool).worker"}},
		// Binned side of dynim, inside a checkpoint taken by core.
		{cpuNS: 30 * ms, frames: []string{"encoding/json.appendCompact", "mummi/internal/dynim.(*Binned).Checkpoint",
			"mummi/internal/core.(*Workflow).Checkpoint", "mummi/internal/campaign.(*Campaign).runOne"}},
		// A dynim function that names no selector type splits to neither side.
		{cpuNS: 5 * ms, frames: []string{"mummi/internal/dynim.marshalSnapshot", "main.x"}},
		// cluster and maestro are part of sched, faults part of datastore.
		{cpuNS: 40 * ms, frames: []string{"mummi/internal/cluster.(*Machine).Alloc", "mummi/internal/sched.(*Scheduler).match"}},
		{cpuNS: 50 * ms, frames: []string{"mummi/internal/faults.(*Engine).DrawStore", "mummi/internal/retry.Policy.Do",
			"mummi/internal/datastore.(*armored).do", "mummi/internal/core.(*Workflow).RestoreState"}},
		// Only helper frames: charged on, past the last mummi frame, to other.
		{cpuNS: 60 * ms, frames: []string{"mummi/internal/stats.Median", "main.summarize"}},
		// Background GC is its own layer; the rest of the runtime is other.
		{cpuNS: 70 * ms, frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}},
		{cpuNS: 80 * ms, frames: []string{"runtime.bgsweep", "runtime.gcenable.gowrap1"}},
		{cpuNS: 90 * ms, frames: []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
		// A package of the program that is no layer of the ledger.
		{cpuNS: 100 * ms, frames: []string{"mummi/internal/continuum.Step", "main.x"}},
	}
	got := attribute(stacks)
	want := map[string]float64{
		"dynim.cpu_s": 0.065, "dynim.fps.cpu_s": 0.030, "dynim.binned.cpu_s": 0.030,
		"sched.cpu_s": 0.040, "datastore.cpu_s": 0.050, "runtime.gc_bg.cpu_s": 0.150,
		"other.cpu_s": 0.250, "ckpt.cpu_s": 0.080, "layers.cpu_sum_s": 0.555,
		"core.cpu_s": 0, "campaign.cpu_s": 0, "vclock.cpu_s": 0, "wmfleet.cpu_s": 0,
		"kvstore.cpu_s": 0, "feedback.cpu_s": 0, "sim.cpu_s": 0, "telemetry.cpu_s": 0,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("attribute returned %d names, want %d: %v", len(got), len(want), got)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got[l+".cpu_s"]
	}
	if math.Abs(sum-got["layers.cpu_sum_s"]) > 1e-9 {
		t.Errorf("layers sum to %v, layers.cpu_sum_s is %v", sum, got["layers.cpu_sum_s"])
	}
}

// pb builds protobuf messages for TestDecodeProfile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3), v))
}

func (p *pb) message(field int, b []byte) {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3|2), uint64(len(b))))
	p.Write(b)
}

func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "runtime.memmove", "mummi/internal/dynim.(*Binned).Select", "main.run"}
	var prof pb
	for _, s := range strs {
		prof.message(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7} {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		prof.message(5, f.Bytes())
	}
	line := func(fn uint64) []byte {
		var l pb
		l.varint(1, fn)
		l.varint(2, 42)
		return l.Bytes()
	}
	// Location 1 holds memmove inlined into Select: two lines, callee first.
	var loc1, loc2 pb
	loc1.varint(1, 1)
	loc1.message(4, line(1))
	loc1.message(4, line(2))
	loc2.varint(1, 2)
	loc2.message(4, line(3))
	prof.message(4, loc1.Bytes())
	prof.message(4, loc2.Bytes())
	// One sample with packed fields, one with repeated scalars.
	var packed, scalar pb
	packed.message(1, binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2))
	packed.message(2, binary.AppendUvarint(binary.AppendUvarint(nil, 3), 30_000_000))
	scalar.varint(1, 2)
	scalar.varint(2, 1)
	scalar.varint(2, 10_000_000)
	prof.message(2, packed.Bytes())
	prof.message(2, scalar.Bytes())
	prof.varint(12, 10_000_000) // period: a field the decoder skips

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	got, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{cpuNS: 30_000_000, frames: []string{"runtime.memmove", "mummi/internal/dynim.(*Binned).Select", "main.run"}},
		{cpuNS: 10_000_000, frames: []string{"main.run"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// The percentile rule: a timing is reported at the highest of these
// percentiles that still has at least ten samples beyond it. The ledger's
// tail names (put_p999_us, iter_p80_ms) are fixed, so the rule lives here
// and the test holds the names to it at the workload's size.
var reportedPercentiles = []float64{50, 80, 90, 95, 99, 99.9}

func highestPercentile(n int) float64 {
	best := reportedPercentiles[0]
	for _, p := range reportedPercentiles {
		// The epsilon keeps 50 × (1 − 0.8) = 9.999… from missing its ten.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {49, 50}, {50, 80}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {250000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 80: 80, 99: 99, 99.9: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	// The ledger's fixed tail names are the rule's answer at full size.
	if highestPercentile(kvRounds*kvFrames) != 99.9 || highestPercentile(kvRounds) != 80 {
		t.Error("put_p999_us and iter_p80_ms no longer match the rule at the workload's size")
	}
}

func quickChild(t *testing.T, w workload, seed int64, traced bool) childResult {
	t.Helper()
	res, err := runChild(childOpts{w: w, seed: seed, quick: true, traced: traced, spawned: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) > 0 || res.Failed > 0 {
		t.Fatalf("%s seed %d: failed %d of %d, problems %v", w.name, seed, res.Failed, res.Attempted, res.Problems)
	}
	return res
}

func TestQuickReplayDigestsRepeat(t *testing.T) {
	coord, _ := findWorkload("replay-coord")
	a := quickChild(t, coord, 1, false)
	b := quickChild(t, coord, 1, true)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("same seed, timed then traced: digests %q and %q", a.Digest, b.Digest)
	}
	if c := quickChild(t, coord, 2, false); c.Digest == a.Digest {
		t.Error("seeds 1 and 2 gave the same Result")
	}
	nonZero(t, b, "layers.cpu_sum_s", "sched.completed", "sched.match_visits", "core.candidates", "core.selections",
		"core.polls", "core.sims_launched", "dynim.selected", "campaign.node_hours", "runtime.alloc_objects")
}

// nonZero checks that ledger entries a workload must reach were read from
// registry names the program really emits.
func nonZero(t *testing.T, res childResult, names ...string) {
	t.Helper()
	for _, name := range names {
		if res.Layer[name] == 0 {
			t.Errorf("%s: %s is 0", res.Workload, name)
		}
	}
}

// TestChaosCompletesAcrossSeeds draws a different fault schedule per seed:
// the timed workload fixes the plan's seed (see chaosPlanSeed), and
// completion must not depend on that one draw.
func TestChaosCompletesAcrossSeeds(t *testing.T) {
	chaos, _ := findWorkload("replay-chaos")
	w := chaos
	w.config = func(seed int64, quick bool) (campaign.Config, error) {
		cfg, err := chaos.config(seed, quick)
		if err == nil {
			cfg.Faults.Seed = seed
		}
		return cfg, err
	}
	for _, seed := range []int64{1, 3, 5} {
		res := quickChild(t, w, seed, seed == 1)
		if res.Work != 12000 {
			t.Errorf("seed %d: %v node-hours, want 12000", seed, res.Work)
		}
		if seed == 1 {
			nonZero(t, res, "datastore.ops", "datastore.retries", "datastore.write_mb", "faults.injected",
				"wmfleet.lease_renewals", "core.feedback_runs", "sched.failed")
		}
	}
}

func TestQuickFeedbackKV(t *testing.T) {
	kv, _ := findWorkload("feedback-kv")
	res := quickChild(t, kv, 1, false)
	if want := float64(kvRoundsQuick * kvFrames); res.Work != want || res.Layer["kvstore.keys_final"] != want {
		t.Errorf("work %v, keys in %s %v, want %v", res.Work, kvDoneNS, res.Layer["kvstore.keys_final"], want)
	}
}

func TestAnomalyKinds(t *testing.T) {
	for line, want := range map[string]anomalyKind{
		"fault: t=3h node-crash node=12": faultLedger,
		"wmfleet: instance 1 renew of cg-to-aa failed: faults: injected transient fault in get: datastore: transient error": exhaustedRetries,
		"fail-injection job 17: sched: no such job": failedOp,
	} {
		if got := classify(line); got != want {
			t.Errorf("classify(%q) = %v, want %v", line, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the driver's
// catalogue equal, both ways.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	var wantE2E, wantLayer []metric
	for _, d := range endToEnd {
		bound := d.bound
		wantE2E = append(wantE2E, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, metric{d.name, d.unit, d.better, nil})
	}
	if !reflect.DeepEqual(doc.EndToEnd, wantE2E) {
		t.Errorf("end_to_end differs:\n json   %s\n driver %s", show(doc.EndToEnd), show(wantE2E))
	}
	if !reflect.DeepEqual(doc.PerLayer, wantLayer) {
		t.Errorf("per_layer differs:\n json   %s\n driver %s", show(doc.PerLayer), show(wantLayer))
	}

	// And the driver emits exactly the named metrics.
	s := summary{EndToEnd: map[string]stat{}, PerLayer: map[string]float64{}, Attempted: 1}
	for _, traced := range []bool{false, true} {
		var line struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(contractLine(s, traced)), &line); err != nil {
			t.Fatal(err)
		}
		want := wantE2E
		if traced {
			want = wantLayer
		}
		var got, names []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		for _, m := range want {
			names = append(names, m.Name)
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s is emitted in %q, declared in %q", m.Name, line.Metrics[m.Name].Unit, m.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(names)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("trace %v emits %v, BENCHMARK.json names %v", traced, got, names)
		}
	}
}

func show(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestTraceFilesMatchWorkloads(t *testing.T) {
	for _, w := range workloads {
		if w.config == nil {
			continue
		}
		want, err := traceFile(w)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("workloads", w.name+".trace.json")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is not what the driver runs; go run ./bench -update-reference rewrites it", path)
		}
		if referenceDigest(w.name, 1) == "" {
			t.Errorf("no reference digest for %s seed 1", w.name)
		}
	}
}
