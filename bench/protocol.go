package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// The measurement protocol. Every rep is a fresh child process (the driver
// re-executes itself), timed reps run with telemetry and profiler off,
// rounds interleave the workloads (w1,w2,w3,w4,w1,…) so slow drift of the
// host falls on all of them alike, and a host probe runs between reps. A rep
// with a probe beside it slower than the invocation's fastest probe by more
// than noiseThreshold is noisy and is run again, at most maxExtraReps times
// per workload. Medians are taken over quiet reps.
//
// The threshold is calibrated on this host: while reps of one workload
// repeated within 3%, the one-second probe itself read 190 to 219 ms, so the
// 8% first tried flagged 7 of 12 quiet reps and 15% still one in seven; the
// busy minutes it is there to catch slow a replay by 18 to 65%.
const (
	timedReps      = 3
	noiseThreshold = 0.20
	maxExtraReps   = 2
)

// contractSetups is the number of set-up-only children a --seconds run adds
// to its timed reps. Such a run has time for one rep, and the driver that
// asks for it compares setup_s with no floor: a replay sets up in 3 ms, so
// one sample would be read off the scheduler's mood. The repository's own
// modes take setup_s from the timed reps alone.
const contractSetups = 8

//go:embed reference/*.sha256
var referenceFS embed.FS

// referenceDigest returns the committed digest of a replay's Result, or ""
// when none is committed for that seed.
func referenceDigest(workload string, seed int64) string {
	b, err := referenceFS.ReadFile(fmt.Sprintf("reference/%s.seed%d.sha256", workload, seed))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// plan says what one invocation measures.
type plan struct {
	workloads []workload
	seed      int64
	quick     bool
	// A workload's timed reps go on until there are at least reps of them
	// and they have measured at least seconds of timed region.
	reps    int
	seconds float64
	// setups is the number of extra set-up-only children per workload.
	setups int
	traced bool
	// probe is off for smoke runs, which report no numbers.
	probe bool
	// checkReference is off while the references are being rewritten.
	checkReference bool
	// out, when set, receives the traced children's profiles and spans.
	out string
}

// rep is one child's report and the probes that ran before and after it.
type rep struct {
	childResult
	probeBefore, probeAfter float64
}

// harness runs children and probes for one invocation.
type harness struct {
	exe    string
	log    io.Writer
	prober *prober   // made by the first probe
	probes []float64 // every probe reading, in order
}

func (h *harness) probe(p plan) float64 {
	if !p.probe {
		return 0
	}
	if h.prober == nil {
		h.prober = newProber()
	}
	ms := h.prober.run()
	h.probes = append(h.probes, ms)
	return ms
}

func (h *harness) lowestProbe() float64 {
	if len(h.probes) == 0 {
		return 0
	}
	return slices.Min(h.probes)
}

func (h *harness) noisy(r rep) bool {
	limit := h.lowestProbe() * (1 + noiseThreshold)
	return r.probeBefore > limit || r.probeAfter > limit
}

// child starts one child process, waits for it and decodes its report.
func (h *harness) child(p plan, w workload, traced, setupOnly bool) (childResult, error) {
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(p.seed),
		fmt.Sprintf("-quick=%t", p.quick), fmt.Sprintf("-traced=%t", traced), fmt.Sprintf("-setup-only=%t", setupOnly),
		"-spawned", fmt.Sprint(time.Now().UnixNano())}
	if traced && p.out != "" {
		args = append(args, "-out", p.out)
	}
	cmd := exec.Command(h.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child report: %w", w.name, err)
	}
	if p.checkReference && !p.quick && !setupOnly {
		if want := referenceDigest(w.name, p.seed); want != "" && res.Digest != want {
			res.Problems = append(res.Problems, fmt.Sprintf("Result digest %s differs from reference %s", res.Digest, want))
		}
	}
	return res, nil
}

// result is everything measured for one workload.
type result struct {
	w      workload
	timed  []rep
	setups []float64 // setup_s of the set-up-only children
	traced *rep
}

// measure runs the plan: interleaved timed reps with probes between them,
// re-runs of noisy reps, set-up samples, then one traced rep per workload.
func (h *harness) measure(p plan) ([]*result, error) {
	results := make([]*result, len(p.workloads))
	for i, w := range p.workloads {
		results[i] = &result{w: w}
	}
	last := h.probe(p)
	run := func(r *result, traced bool) (rep, error) {
		kind := "timed"
		if traced {
			kind = "traced"
		}
		fmt.Fprintf(h.log, "bench: %s %s rep…", r.w.name, kind)
		c, err := h.child(p, r.w, traced, false)
		if err != nil {
			fmt.Fprintln(h.log)
			return rep{}, err
		}
		out := rep{childResult: c, probeBefore: last}
		last = h.probe(p)
		out.probeAfter = last
		fmt.Fprintf(h.log, " wall %.2f s, probes %.0f/%.0f ms\n", c.WallS, out.probeBefore, out.probeAfter)
		return out, nil
	}
	for {
		progressed := false
		for _, r := range results {
			if h.enough(p, r.timed) {
				continue
			}
			out, err := run(r, false)
			if err != nil {
				return nil, err
			}
			r.timed = append(r.timed, out)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	for _, r := range results {
		for i := 0; i < p.setups; i++ {
			c, err := h.child(p, r.w, false, true)
			if err != nil {
				return nil, err
			}
			r.setups = append(r.setups, c.SetupS)
		}
		if p.traced {
			out, err := run(r, true)
			if err != nil {
				return nil, err
			}
			r.traced = &out
		}
	}
	return results, nil
}

// fills reports whether reps are as many, and measured as long, as the plan
// asks for.
func (p plan) fills(reps []rep) bool {
	wall := 0.0
	for _, r := range reps {
		wall += r.WallS
	}
	return len(reps) >= p.reps && wall >= p.seconds
}

// enough reports whether a workload needs no further timed rep: its quiet
// reps fill the plan, or it has already run maxExtraReps more than the plan
// asks for.
func (h *harness) enough(p plan, reps []rep) bool {
	return p.fills(h.quiet(reps)) || (len(reps) > maxExtraReps && p.fills(reps[:len(reps)-maxExtraReps]))
}

func (h *harness) quiet(reps []rep) []rep {
	var q []rep
	for _, r := range reps {
		if !h.noisy(r) {
			q = append(q, r)
		}
	}
	return q
}

// accepted returns the reps the medians are taken over: the quiet ones, or
// all of them when the host never went quiet for long enough.
func (h *harness) accepted(p plan, r *result) []rep {
	if q := h.quiet(r.timed); p.fills(q) {
		return q
	}
	return r.timed
}

// stat is one end-to-end metric of one workload over its accepted reps.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Unresolved is set when the accepted reps spread wider than the
	// metric's bound: the benchmark cannot stand behind the median.
	Unresolved bool `json:"unresolved,omitempty"`
}

// summary is the reported outcome for one workload.
type summary struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	// Warnings are about the measurement, not the program's output.
	Warnings []string `json:"warnings,omitempty"`
}

func (s summary) failedFrac() float64 {
	return float64(s.Failed) / float64(s.Attempted)
}

func (h *harness) summarize(p plan, r *result) summary {
	s := summary{Workload: r.w.name, Seed: p.seed, EndToEnd: map[string]stat{}}
	acc := h.accepted(p, r)
	all := append([]rep(nil), r.timed...)
	if r.traced != nil {
		all = append(all, *r.traced)
	}
	seen := map[string]bool{}
	digestsDiffer := false
	for _, c := range all {
		s.Attempted += c.Attempted
		s.Failed += c.Failed
		for _, pr := range c.Problems {
			if !seen[pr] {
				seen[pr] = true
				s.Problems = append(s.Problems, pr)
			}
		}
		if s.Digest == "" {
			s.Digest = c.Digest
		} else if c.Digest != s.Digest && !digestsDiffer {
			digestsDiffer = true
			s.Problems = append(s.Problems, fmt.Sprintf("Result digest differs between reps: %s and %s", s.Digest, c.Digest))
		}
	}
	for _, d := range endToEnd {
		var v []float64
		for _, c := range acc {
			v = append(v, d.of(c.childResult))
		}
		if d.name == "setup_s" {
			v = append(v, r.setups...)
		}
		sv := sorted(v)
		st := stat{Median: median(sv), Min: sv[0], Max: sv[len(sv)-1], N: len(sv)}
		st.Unresolved = spread(sv) > d.bound && st.Max-st.Min > d.floor
		s.EndToEnd[d.name] = st
	}
	if r.traced == nil {
		return s
	}
	s.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		s.PerLayer[d.name] = r.traced.Layer[d.name]
	}
	// Spans the benchmark records around its own calls are also taken in
	// timed reps, where no tracing slows them: prefer those.
	for name := range s.PerLayer {
		var v []float64
		for _, c := range acc {
			if x, ok := c.Layer[name]; ok {
				v = append(v, x)
			}
		}
		if len(v) > 0 {
			s.PerLayer[name] = median(v)
		}
	}
	s.PerLayer["host.probe_ms"] = median(h.probes)
	if lo := h.lowestProbe(); lo > 0 {
		s.PerLayer["host.probe_spread_pct"] = 100 * (slices.Max(h.probes) - lo) / lo
	}
	s.PerLayer["host.noisy_reps"] = float64(len(r.timed) - len(h.quiet(r.timed)))
	if wall := s.EndToEnd["wall_s"].Median; wall > 0 {
		s.PerLayer["trace.overhead_pct"] = 100 * (r.traced.WallS/wall - 1)
	}
	s.PerLayer["trace.cpu_s"] = r.traced.CPUS
	if sum, cpu := s.PerLayer["layers.cpu_sum_s"], r.traced.CPUS; !p.quick && (sum < 0.95*cpu || sum > 1.05*cpu) {
		s.Warnings = append(s.Warnings, fmt.Sprintf("ledger does not close: layers sum to %.3f s of the traced run's %.3f s CPU", sum, cpu))
	}
	return s
}
