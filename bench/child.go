package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/telemetry"
)

// childOpts selects what one child process runs. Every rep is a fresh
// process, so no rep inherits another's heap, caches or peak RSS.
type childOpts struct {
	w     workload
	seed  int64
	quick bool
	// traced turns on the telemetry registry and a CPU profile of the timed
	// region; timed reps run with both off.
	traced bool
	// setupOnly stops at the start of the timed region: a setup_s sample.
	// It is never combined with traced.
	setupOnly bool
	// spawned is when the driver started the process; set-up is timed from
	// it, so exec and runtime start-up are part of setup_s.
	spawned time.Time
	// out, when set, is a directory the traced child writes its CPU profile
	// and spans into.
	out string
}

// childResult is the one JSON line a child prints.
type childResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Work is the work completed in the timed region, in the workload's
	// unit (node-hours or frames).
	Work      float64 `json:"work"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`

	// Digest is sha256(json.Marshal(campaign.Result)); empty for
	// feedback-kv.
	Digest string `json:"digest,omitempty"`
	// Problems lists every way the output was wrong; empty means correct.
	Problems []string `json:"problems,omitempty"`
	// Layer holds per-layer metrics: all of them from a traced child, the
	// benchmark's own span timings from a timed feedback-kv child.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// region measures the timed part of a child: host wall, user+sys CPU,
// bytes and objects allocated, GC cycles, and (traced) a CPU profile.
type region struct {
	t0   time.Time
	ru0  syscall.Rusage
	ms0  runtime.MemStats
	prof *bytes.Buffer
}

type measured struct {
	wallS, cpuS, allocMB float64
	gcCycles, mallocs    float64
	profile              []byte
}

func startRegion(traced bool) (*region, error) {
	r := &region{}
	runtime.GC()
	runtime.ReadMemStats(&r.ms0)
	if traced {
		r.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(r.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r.ru0); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.t0 = time.Now()
	return r, nil
}

func (r *region) stop() (measured, error) {
	wall := time.Since(r.t0)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return measured{}, fmt.Errorf("getrusage: %w", err)
	}
	m := measured{wallS: wall.Seconds()}
	if r.prof != nil {
		// Stopping waits for the profile writer; it is outside the wall
		// and CPU readings above.
		pprof.StopCPUProfile()
		m.profile = r.prof.Bytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := func(u syscall.Rusage) float64 {
		return float64(u.Utime.Nano()+u.Stime.Nano()) / 1e9
	}
	m.cpuS = cpu(ru) - cpu(r.ru0)
	m.allocMB = float64(ms.TotalAlloc-r.ms0.TotalAlloc) / 1e6
	m.gcCycles = float64(ms.NumGC - r.ms0.NumGC)
	m.mallocs = float64(ms.Mallocs - r.ms0.Mallocs)
	return m, nil
}

// runChild runs one rep of one workload in this process.
func runChild(o childOpts) (childResult, error) {
	res := childResult{Workload: o.w.name, Seed: o.seed, Layer: map[string]float64{}}
	sp := newSpans(fmt.Sprintf("%s/seed%d/pid%d", o.w.name, o.seed, os.Getpid()))
	var tel *telemetry.Telemetry
	if o.traced {
		tel = telemetry.New(telemetry.Options{})
	}
	var m measured
	var err error
	if o.w.config == nil {
		m, err = childKV(o, tel, sp, &res)
	} else {
		m, err = childReplay(o, tel, sp, &res)
	}
	if err != nil || o.setupOnly {
		return res, err
	}
	res.WallS, res.CPUS, res.AllocMB = m.wallS, m.cpuS, m.allocMB
	if res.Attempted < 1 {
		res.Problems = append(res.Problems, "nothing was attempted")
		res.Attempted = 1
	}
	if o.traced {
		stacks, err := decodeProfile(m.profile)
		if err != nil {
			return res, err
		}
		maps.Copy(res.Layer, attribute(stacks))
		maps.Copy(res.Layer, registryCounts(tel.Registry().Snapshot()))
		res.Layer["runtime.gc_cycles"] = m.gcCycles
		res.Layer["runtime.alloc_objects"] = m.mallocs
		if o.out != "" {
			if err := writeTrace(o.out, o.w.name, m.profile, sp); err != nil {
				return res, err
			}
		}
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return res, err
	}
	return res, nil
}

// childReplay builds the campaign (set-up), then times (*Campaign).Run.
func childReplay(o childOpts, tel *telemetry.Telemetry, sp *spans, res *childResult) (measured, error) {
	id := sp.begin("campaign.new", -1)
	cfg, err := o.w.config(o.seed, o.quick)
	if err != nil {
		return measured{}, err
	}
	cfg.Telemetry = tel
	c, err := campaign.NewCampaign(cfg)
	if err != nil {
		return measured{}, err
	}
	sp.end(id)
	reg, err := startRegion(o.traced)
	if err != nil {
		return measured{}, err
	}
	res.SetupS = reg.t0.Sub(o.spawned).Seconds()
	if o.setupOnly {
		return measured{}, nil
	}
	id = sp.begin("campaign.run", -1)
	out, runErr := c.Run()
	sp.end(id)
	m, err := reg.stop()
	if err != nil {
		return m, err
	}
	if runErr != nil {
		// A campaign that aborts has failed at everything it was asked.
		res.Problems = append(res.Problems, "campaign.Run: "+runErr.Error())
		res.Attempted, res.Failed = 1, 1
		return m, nil
	}

	id = sp.begin("bench.digest", -1)
	b, err := json.Marshal(out)
	if err != nil {
		return m, fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	res.Digest = hex.EncodeToString(sum[:])
	sp.end(id)

	res.Work = float64(out.TotalNodeHours)
	res.Attempted = int64(out.CGSelected + out.AASelected)
	exhausted := 0
	for _, a := range out.Anomalies {
		switch classify(a) {
		case failedOp:
			res.Failed++
		case exhaustedRetries:
			exhausted++
		}
	}
	wantRuns, wantNH := 0, 0.0
	for _, r := range cfg.Runs {
		wantRuns += r.Count
		wantNH += float64(r.NodeHours())
	}
	if out.RunsDone != wantRuns {
		res.Problems = append(res.Problems, fmt.Sprintf("runs done %d, schedule has %d", out.RunsDone, wantRuns))
	}
	if math.Abs(float64(out.TotalNodeHours)-wantNH) > 1e-6*wantNH {
		res.Problems = append(res.Problems, fmt.Sprintf("node-hours %.3f, schedule has %.3f", float64(out.TotalNodeHours), wantNH))
	}
	res.Layer["campaign.new_s"] = sp.total("campaign.new")
	res.Layer["campaign.run_s"] = sp.total("campaign.run")
	res.Layer["bench.digest_s"] = sp.total("bench.digest")
	res.Layer["campaign.runs_done"] = float64(out.RunsDone)
	res.Layer["campaign.node_hours"] = float64(out.TotalNodeHours)
	res.Layer["campaign.gpu_mean_pct"] = out.GPUMeanPct
	res.Layer["datastore.exhausted_retries"] = float64(exhausted)
	return m, nil
}

// An anomaly line of campaign.Result is one of three things.
type anomalyKind int

const (
	// faultLedger lines carry the "fault:" prefix: the chaos plan's own
	// record of what it injected.
	faultLedger anomalyKind = iota
	// exhaustedRetries lines quote "faults: injected": an armored store
	// operation (a lease renewal, say) that still failed after every retry.
	// The plan caused it, so it is not the program failing on its own, but
	// it is the recovery path giving up: it is counted exactly, as
	// datastore.exhausted_retries, so that a weaker armor shows on any seed.
	exhaustedRetries
	// failedOp is anything else: the program failing on its own.
	failedOp
)

func classify(anomaly string) anomalyKind {
	switch {
	case strings.HasPrefix(anomaly, "fault:"):
		return faultLedger
	case strings.Contains(anomaly, "faults: injected"):
		return exhaustedRetries
	}
	return failedOp
}

// registryCounts turns the program's public telemetry snapshot into the
// ledger's count metrics. Labelled series of one base name are summed.
func registryCounts(s telemetry.Snapshot) map[string]float64 {
	sum := map[string]float64{}
	for _, c := range s.Counters {
		base, _, _ := strings.Cut(c.Name, "{")
		sum[base] += float64(c.Value)
	}
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	return map[string]float64{
		"sched.submitted":          sum["sched.submitted_total"],
		"sched.started":            sum["sched.started_total"],
		"sched.completed":          sum["sched.completed_total"],
		"sched.failed":             sum["sched.failed_total"],
		"sched.matches":            sum["sched.matches_total"],
		"sched.match_visits":       sum["sched.match_visits_total"],
		"sched.match_blocked_frac": frac(sum["sched.match_blocked_total"], sum["sched.matches_total"]),
		"core.candidates":          sum["wm.candidates_total"],
		"core.selections":          sum["wm.selections_total"],
		"core.polls":               sum["wm.polls_total"],
		"core.setups_launched":     sum["wm.setups_launched_total"],
		"core.setup_fail_frac":     frac(sum["wm.setups_failed_total"], sum["wm.setups_launched_total"]),
		"core.sims_launched":       sum["wm.sims_launched_total"],
		"core.sim_fail_frac":       frac(sum["wm.sims_failed_total"], sum["wm.sims_launched_total"]),
		"core.feedback_runs":       sum["wm.feedback_runs_total"],
		"dynim.selected":           sum["dynim.selected_total"],
		"dynim.select_frac":        frac(sum["dynim.selected_total"], sum["wm.candidates_total"]),
		"datastore.ops":            sum["store.ops_total"],
		"datastore.retries":        sum["store.retries_total"],
		"datastore.retry_frac":     frac(sum["store.retries_total"], sum["store.ops_total"]),
		"datastore.write_mb":       sum["store.write_bytes_total"] / 1e6,
		"faults.injected":          sum["faults.injected_total"],
		"wmfleet.crashes":          sum["wmfleet.wm_crashes_total"],
		"wmfleet.adoptions":        sum["wmfleet.wm_adoptions_total"],
		"wmfleet.lease_renewals":   sum["wmfleet.lease_renewals_total"],
	}
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb * 1024 / 1e6, nil
			}
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// writeTrace writes the traced child's profile and spans into dir, as
// <workload>.cpu.pprof (for go tool pprof) and <workload>.spans.json.
func writeTrace(dir, name string, profile []byte, sp *spans) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), profile, 0o644); err != nil {
		return err
	}
	b, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), b, 0o644)
}
