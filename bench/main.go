// Command bench is the repository's one benchmark: four workloads, the
// end-to-end metrics of catalogue.go measured from timed reps, and a
// per-layer ledger from one traced rep per workload. It measures the
// program from outside — public functions, public outputs, its own clock —
// and claims no gain: it is the baseline later changes are measured with.
// README.md has the catalogue, the protocol and how to read the output.
//
//	go run ./bench                  all workloads, 3 timed reps + 1 traced rep each
//	go run ./bench -selfcheck       the protocol twice, compared metric by metric
//	go run ./bench -quick           every workload at ~1/10 size, no numbers
//	go run ./bench -update-reference
//	go run ./bench --workload replay-paper --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all workloads, tables only)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "keep adding timed reps until they have measured this many seconds (with -workload)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ledger")
		selfcheck    = flag.Bool("selfcheck", false, "run the protocol twice on this tree and compare the two sets")
		quick        = flag.Bool("quick", false, "smoke run: ~1/10 size, one rep, no numbers")
		updateRef    = flag.Bool("update-reference", false, "rewrite bench/reference/*.sha256 and bench/workloads/*.trace.json (run from the repository root)")
		out          = flag.String("out", "", "directory for the traced runs' CPU profiles and spans")
		jsonOut      = flag.String("json", "", "also write the full results to this file")

		child     = flag.Bool("child", false, "internal: run one rep in this process")
		traced    = flag.Bool("traced", false, "internal: child runs traced")
		setupOnly = flag.Bool("setup-only", false, "internal: child stops at the start of the timed region")
		spawned   = flag.Int64("spawned", 0, "internal: when the driver started the child, Unix nanoseconds")
	)
	started := time.Now()
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var one workload
	if *workloadName != "" {
		var ok bool
		if one, ok = findWorkload(*workloadName); !ok {
			fail(fmt.Errorf("no workload %q", *workloadName))
		}
	}

	if *child {
		if *spawned != 0 {
			started = time.Unix(0, *spawned)
		}
		res, err := runChild(childOpts{w: one, seed: *seed, quick: *quick, traced: *traced && !*setupOnly,
			setupOnly: *setupOnly, spawned: started, out: *out})
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(err)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	h := &harness{exe: exe, log: os.Stderr}
	p := plan{workloads: workloads, seed: *seed, reps: timedReps, traced: true,
		probe: true, checkReference: true, out: *out}

	switch {
	case *updateRef:
		p.reps, p.traced, p.probe, p.checkReference = 1, false, false, false
		p.workloads = nil
		for _, w := range workloads {
			if w.config != nil {
				p.workloads = append(p.workloads, w)
			}
		}
		sums := runPlan(h, p)
		for _, s := range sums {
			path := filepath.Join("bench", "reference", fmt.Sprintf("%s.seed%d.sha256", s.Workload, s.Seed))
			if err := os.WriteFile(path, []byte(s.Digest+"\n"), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("%s  %s\n", s.Digest, path)
		}
		for _, w := range p.workloads {
			b, err := traceFile(w)
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(filepath.Join("bench", "workloads", w.name+".trace.json"), b, 0o644); err != nil {
				fail(err)
			}
		}
		exitOn(sums)

	case *quick:
		p.quick, p.reps, p.probe = true, 1, false
		sums := runPlan(h, p)
		for _, s := range sums {
			verdict := "ok"
			if !s.correct() {
				verdict = "FAIL"
			}
			fmt.Printf("%-14s %s\n", s.Workload, verdict)
			for _, pr := range s.Problems {
				fmt.Printf("  %s\n", pr)
			}
		}
		exitOn(sums)

	case *selfcheck:
		a := runPlan(h, p)
		b := runPlan(h, p)
		printTables(a)
		printTables(b)
		disagree := printComparison(a, b)
		exitOn(append(a, b...))
		if disagree {
			os.Exit(1)
		}

	case *workloadName != "":
		p.workloads = []workload{one}
		p.traced = *trace == 1
		switch {
		case p.traced:
			// One timed rep is what trace.overhead_pct compares against.
			p.reps = 1
		case *seconds > 0:
			p.reps, p.seconds, p.setups = 1, *seconds, contractSetups
		}
		sums := runPlan(h, p)
		printTables(sums)
		writeJSON(*jsonOut, sums)
		// The one-line result carries the verdict; the exit code stays 0 so
		// that a wrong output is read as wrong rather than as a crash.
		fmt.Println(contractLine(sums[0], p.traced))

	default:
		sums := runPlan(h, p)
		printTables(sums)
		writeJSON(*jsonOut, sums)
		exitOn(sums)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runPlan(h *harness, p plan) []summary {
	results, err := h.measure(p)
	if err != nil {
		fail(err)
	}
	sums := make([]summary, len(results))
	for i, r := range results {
		sums[i] = h.summarize(p, r)
	}
	return sums
}

func (s summary) correct() bool { return len(s.Problems) == 0 }

// exitOn ends the process non-zero when any output was wrong or any
// operation failed.
func exitOn(sums []summary) {
	for _, s := range sums {
		if !s.correct() || s.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: output check failed\n", s.Workload)
			os.Exit(1)
		}
	}
}

// contractLine is the last line of a -workload run: one JSON object with the
// end-to-end metrics (trace 0) or the per-layer ledger (trace 1).
func contractLine(s summary, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.name] = value{s.PerLayer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = value{s.EndToEnd[d.name].Median, d.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.correct(), s.Attempted, s.Failed, metrics})
	if err != nil {
		fail(err)
	}
	return string(b)
}

// writeJSON writes the full results, with the host they were taken on.
func writeJSON(path string, sums []summary) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(struct {
		Claim      *string   `json:"claim"`
		GoVersion  string    `json:"go_version"`
		NumCPU     int       `json:"nproc"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		Results    []summary `json:"results"`
	}{nil, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sums}, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
}

func printTables(sums []summary) {
	for _, s := range sums {
		w, _ := findWorkload(s.Workload)
		fmt.Printf("\n== %s  seed %d  (%s)\n", s.Workload, s.Seed, w.size)
		fmt.Printf("%-26s %14s %-10s %s\n", "end to end", "median", "unit", "[min .. max] n")
		for _, d := range endToEnd {
			st := s.EndToEnd[d.name]
			unit := d.unit
			if d.name == "work_per_s" {
				unit = w.workUnit + "/s"
			}
			note := ""
			if st.Unresolved {
				note = fmt.Sprintf("  unresolved: reps spread wider than the %.0f%% bound", 100*d.bound)
			}
			fmt.Printf("%-26s %14.4f %-10s [%.4f .. %.4f] n=%d%s\n", d.name, st.Median, unit, st.Min, st.Max, st.N, note)
		}
		fmt.Printf("%-26s %14.6f %-10s %d failed of %d attempted\n", "failed_frac", s.failedFrac(), "ratio", s.Failed, s.Attempted)
		if s.PerLayer != nil {
			fmt.Printf("%-26s %14s %s\n", "per layer (traced run)", "value", "unit")
			for _, d := range perLayer {
				fmt.Printf("%-26s %14.4f %s\n", d.name, s.PerLayer[d.name], d.unit)
			}
		}
		if s.Digest != "" {
			ref := "no reference for this seed"
			if want := referenceDigest(s.Workload, s.Seed); want != "" {
				ref = "reference " + want
			}
			fmt.Printf("Result digest %s (%s)\n", s.Digest, ref)
		}
		for _, pr := range s.Problems {
			fmt.Printf("WRONG: %s\n", pr)
		}
		for _, wa := range s.Warnings {
			fmt.Printf("warning: %s\n", wa)
		}
	}
}

// printComparison prints, per workload and end-to-end metric, both medians,
// their ratio, the bound and the verdict, then every exact count that
// differs. It reports whether any verdict was DISAGREE.
func printComparison(a, b []summary) (disagree bool) {
	fmt.Printf("\n== selfcheck: two sets of runs of the same tree\n")
	fmt.Printf("%-14s %-12s %12s %12s %8s %7s  %s\n", "workload", "metric", "first", "second", "ratio", "bound", "verdict")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].EndToEnd[d.name], b[i].EndToEnd[d.name]
			ratio := y.Median / x.Median
			verdict := "agree"
			within := ratio <= 1+d.bound && ratio >= 1/(1+d.bound)
			within = within || math.Abs(y.Median-x.Median) <= d.floor
			switch {
			case within:
			case x.Unresolved || y.Unresolved:
				verdict = "unresolved"
			default:
				verdict, disagree = "DISAGREE", true
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %8.3f %6.0f%%  %s\n", a[i].Workload, d.name, x.Median, y.Median, ratio, 100*d.bound, verdict)
		}
		verdict := "agree"
		if a[i].failedFrac() != b[i].failedFrac() {
			verdict, disagree = "DISAGREE", true
		}
		fmt.Printf("%-14s %-12s %12.6f %12.6f %8s %7s  %s\n", a[i].Workload, "failed_frac", a[i].failedFrac(), b[i].failedFrac(), "", "any", verdict)
	}
	var diffs []string
	for i := range a {
		for _, d := range perLayer {
			if d.exact && a[i].PerLayer[d.name] != b[i].PerLayer[d.name] {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v then %v", a[i].Workload, d.name, a[i].PerLayer[d.name], b[i].PerLayer[d.name]))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		fmt.Println("every exact count is identical across the two sets")
	} else {
		disagree = true
		fmt.Printf("DISAGREE: exact counts differ:\n  %s\n", strings.Join(diffs, "\n  "))
	}
	return disagree
}
