// Command matrix replays the committed scenario catalog — the workflow
// instances under scenarios/*.trace.json — and gates their per-scenario
// BENCH_scenario_<name>.json ledgers against drift. It is the `make
// matrix` entry point and the enumerable form of "as many scenarios as you
// can imagine": every scenario is a trace file (internal/trace), every
// replay is a pure function of its trace, and the fresh ledger must equal
// the committed one byte for byte.
//
// Usage:
//
//	go run ./scripts/matrix                         # replay all, gate against committed ledgers
//	go run ./scripts/matrix -only laptop-smoke      # subset (comma-separated scenario names)
//	go run ./scripts/matrix -update                 # rewrite the committed ledgers
//	go run ./scripts/matrix -outdir d               # also write the fresh ledgers to d
//	go run ./scripts/matrix -list                   # print the catalog and exit
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mummi/internal/campaign"
	"mummi/internal/trace"
)

func main() {
	scenariosDir := flag.String("scenarios", "scenarios", "directory of committed *.trace.json scenarios")
	outdir := flag.String("outdir", "", "also write the fresh BENCH_scenario_*.json here")
	only := flag.String("only", "", "comma-separated scenario names to replay (default: all)")
	update := flag.Bool("update", false, "rewrite the committed ledgers in -scenarios instead of comparing")
	list := flag.Bool("list", false, "print the scenario catalog and exit")
	flag.Parse()

	if err := run(os.Stdout, *scenariosDir, *outdir, *only, *update, *list); err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		os.Exit(1)
	}
}

// ledger is the committed per-scenario report: a mummi-bench/v1 schema
// tag and the scenario's seed over one flat numeric metric map per
// experiment.
type ledger struct {
	Schema      string                        `json:"schema"`
	Seed        int64                         `json:"seed"`
	Experiments map[string]map[string]float64 `json:"experiments"`
}

// marshal renders the ledger in canonical form: two-space indented JSON
// with a trailing newline, map keys sorted by encoding/json — same content,
// same bytes, which is what lets the gate be bytes.Equal.
func (l *ledger) marshal() ([]byte, error) {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ledgerName is the committed per-scenario report filename.
func ledgerName(scenario string) string {
	return "BENCH_scenario_" + strings.ReplaceAll(scenario, "-", "_") + ".json"
}

// explain lists, one line per metric, where a fresh ledger parts from the
// committed bytes it failed to equal. It decides nothing — the gate is the
// byte comparison — so a metric or experiment on one side only is a
// difference like any other.
func explain(w io.Writer, committed []byte, fresh *ledger) {
	var old ledger
	if err := json.Unmarshal(committed, &old); err != nil {
		fmt.Fprintf(w, "FAIL  committed ledger does not parse: %v\n", err)
		return
	}
	listed := 0
	for _, exp := range unionKeys(old.Experiments, fresh.Experiments) {
		oldM, newM := old.Experiments[exp], fresh.Experiments[exp]
		for _, m := range unionKeys(oldM, newM) {
			oldV, inOld := oldM[m]
			newV, inNew := newM[m]
			switch {
			case !inNew:
				fmt.Fprintf(w, "FAIL  %-40s %14v -> (missing from the replay)\n", exp+"."+m, oldV)
			case !inOld:
				fmt.Fprintf(w, "FAIL  %-40s (not in the committed ledger) -> %v\n", exp+"."+m, newV)
			case oldV != newV:
				fmt.Fprintf(w, "FAIL  %-40s %14v != %v\n", exp+"."+m, oldV, newV)
			default:
				continue
			}
			listed++
		}
	}
	if listed == 0 {
		fmt.Fprintln(w, "FAIL  no metric differs: the header or the encoding does (run -update and read the diff)")
	}
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func run(w io.Writer, scenariosDir, outdir, only string, update, list bool) error {
	paths, err := filepath.Glob(filepath.Join(scenariosDir, "*.trace.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.trace.json under %s", scenariosDir)
	}
	sort.Strings(paths)

	traces := make(map[string]*trace.Trace, len(paths))
	var names []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		t, err := trace.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if want := t.Name + ".trace.json"; filepath.Base(p) != want {
			return fmt.Errorf("%s: file name does not match trace name %q (want %s)", p, t.Name, want)
		}
		traces[t.Name] = t
		names = append(names, t.Name)
	}

	if list {
		for _, name := range names {
			fmt.Fprintf(w, "%-24s %s\n", name, traces[name].Description)
		}
		return nil
	}

	selected := names
	if only != "" {
		selected = nil
		for _, name := range strings.Split(only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := traces[name]; !ok {
				return fmt.Errorf("unknown scenario %q (see -list)", name)
			}
			selected = append(selected, name)
		}
	}

	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}

	drifted := 0
	for _, name := range selected {
		rep, err := replay(traces[name])
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		fresh, err := rep.marshal()
		if err != nil {
			return err
		}
		committed := filepath.Join(scenariosDir, ledgerName(name))
		if update {
			if err := os.WriteFile(committed, fresh, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "matrix: %-24s -> %s\n", name, committed)
			continue
		}
		if outdir != "" {
			if err := os.WriteFile(filepath.Join(outdir, ledgerName(name)), fresh, 0o644); err != nil {
				return err
			}
		}
		old, err := os.ReadFile(committed)
		if err != nil {
			return fmt.Errorf("scenario %s has no committed ledger (run -update): %w", name, err)
		}
		if bytes.Equal(old, fresh) {
			fmt.Fprintf(w, "matrix: %-24s ok\n", name)
			continue
		}
		fmt.Fprintf(w, "matrix: %-24s differs from %s\n", name, committed)
		explain(w, old, rep)
		drifted++
	}
	if drifted > 0 {
		return fmt.Errorf("%d scenario(s) drifted from the committed ledgers", drifted)
	}
	fmt.Fprintf(w, "matrix: %d scenario(s) clean\n", len(selected))
	return nil
}

// replay runs one scenario and distills its ledger. Every metric is a pure
// function of the trace, so two replays of the same file marshal to the
// same bytes.
func replay(t *trace.Trace) (*ledger, error) {
	cfg, err := t.Config()
	if err != nil {
		return nil, err
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}

	rep := &ledger{Schema: "mummi-bench/v1", Seed: cfg.Seed, Experiments: map[string]map[string]float64{}}
	rep.Experiments["scenario"] = map[string]float64{
		"runs_done":            float64(res.RunsDone),
		"node_hours":           float64(res.TotalNodeHours),
		"matcher_visits":       float64(res.MatcherVisits),
		"snapshots":            float64(res.Snapshots),
		"continuum_total_fs":   float64(res.ContinuumTotal),
		"patches":              float64(res.Patches),
		"cg_selected":          float64(res.CGSelected),
		"cg_frames":            float64(res.CGFrames),
		"cg_frame_candidates":  float64(res.CGFrameCandidates),
		"cg_total_fs":          float64(res.CGTotal),
		"aa_selected":          float64(res.AASelected),
		"aa_total_fs":          float64(res.AATotal),
		"files":                float64(res.Files),
		"bytes":                float64(res.Bytes),
		"injected_failures":    float64(res.InjectedFailures),
		"anomalies":            float64(len(res.Anomalies)),
		"gpu_at_least_98_frac": res.GPUAtLeast98Frac,
		"gpu_mean_pct":         res.GPUMeanPct,
		"gpu_median_pct":       res.GPUMedianPct,
		"cpu_mean_pct":         res.CPUMeanPct,
		"cpu_median_pct":       res.CPUMedianPct,
	}
	if cfg.Faults != nil {
		rep.Experiments["chaos"] = map[string]float64{
			"node_crashes":     float64(res.NodeCrashes),
			"job_hangs":        float64(res.JobHangs),
			"wm_restarts":      float64(res.WMRestarts),
			"store_put_errors": float64(res.StorePutErrors),
		}
	}
	// Distributed-WM ledger, only for fleet scenarios so the committed
	// single-WM ledgers keep their exact historical key set.
	if cfg.WMInstances > 1 {
		rep.Experiments["fleet"] = map[string]float64{
			"wm_instances":      float64(cfg.WMInstances),
			"wm_crashes":        float64(res.WMCrashes),
			"wm_adoptions":      float64(res.WMAdoptions),
			"lease_expirations": float64(res.LeaseExpirations),
		}
	}
	return rep, nil
}
