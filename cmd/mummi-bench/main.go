// Command mummi-bench regenerates the paper's evaluation: every table and
// figure of §5 plus the headline scaling claims. Experiments that replay
// the campaign (Table 1, Figs 3–6, the §5.1 counts) share one virtual-time
// replay; the systems experiments (Fig 7, Fig 8, the Flux fix, taridx,
// feedback backends, selector scaling, the bundling ablation) run directly
// against the real components.
//
// Usage:
//
//	mummi-bench -exp all                # everything, scaled-down campaign
//	mummi-bench -exp fig6 -scale 1.0    # full 600,600-node-hour replay
//	mummi-bench -exp fig7               # KV feedback query sweep
//
// mummi-bench times nothing worth comparing: the wall-clock figures inside
// its tables are one unrepeated run. Performance is measured by bench/
// (bench/README.md).
//
// With -trace-in the shared campaign replay comes from a workflow instance
// (docs/SCENARIOS.md) instead of -scale/-seed/-faults; the systems
// experiments keep their own flags. (-trace, without the -in, is the
// telemetry flag for Chrome trace output — an older surface that keeps its
// name.)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/telemetry"
	"mummi/internal/trace"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: table1|fig3|fig4|fig5|fig6|counts|fig7|fig8|fluxfix|taridx|feedback12x|ml165x|bundling|inventory|all")
	scale := flag.Float64("scale", 0.25, "campaign scale factor (1.0 = full 600,600 node-hours)")
	seed := flag.Int64("seed", 1, "campaign seed")
	full := flag.Bool("full", false, "run systems experiments at full paper scale (slower)")
	workers := flag.Int("workers", 0, "selector rank-update fan-out (0 = GOMAXPROCS; output identical for any value)")
	faultSpec := flag.String("faults", "",
		"chaos plan for the campaign replay: JSON file, inline JSON, or 'class:rate;...' spec (see docs/RESILIENCE.md)")
	wmInstances := flag.Int("wm-instances", 1,
		"workflow-manager fleet size for the campaign replay (>1 = lease-coordinated distributed WM; see docs/RESILIENCE.md)")
	traceIn := flag.String("trace-in", "",
		"workflow instance for the campaign replay (replaces -scale/-seed/-faults for it; see docs/SCENARIOS.md)")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*exp, *scale, *seed, *full, *workers, *wmInstances, *faultSpec, *traceIn, &tf); err != nil {
		fmt.Fprintln(os.Stderr, "mummi-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, seed int64, full bool, workers, wmInstances int, faultSpec, traceIn string, tf *telemetry.Flags) error {
	valid := map[string]bool{"all": true, "table1": true, "fig3": true,
		"fig4": true, "fig5": true, "fig6": true, "counts": true,
		"fig7": true, "fig8": true, "fluxfix": true, "taridx": true,
		"feedback12x": true, "ml165x": true, "bundling": true, "inventory": true}
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		name := strings.TrimSpace(e)
		if !valid[name] {
			return fmt.Errorf("unknown experiment %q (see -exp in -help for the list)", name)
		}
		want[name] = true
	}
	all := want["all"]

	needCampaign := all || want["table1"] || want["fig3"] || want["fig4"] ||
		want["fig5"] || want["fig6"] || want["counts"]
	// The observability flags attach to the shared campaign replay.
	tel, srv, err := tf.Build()
	if err != nil {
		return err
	}
	defer func() {
		if err := tf.Finish(tel, srv); err != nil {
			fmt.Fprintln(os.Stderr, "mummi-bench:", err)
		}
	}()

	var res *campaign.Result
	if needCampaign {
		var cfg campaign.Config
		if traceIn != "" {
			if faultSpec != "" {
				return fmt.Errorf("-trace-in carries its own fault plan; drop -faults")
			}
			b, err := os.ReadFile(traceIn)
			if err != nil {
				return err
			}
			t, err := trace.Parse(b)
			if err != nil {
				return fmt.Errorf("%s: %w", traceIn, err)
			}
			if cfg, err = t.Config(); err != nil {
				return err
			}
			cfg.SelectorWorkers = workers
			fmt.Printf("campaign replay from scenario %s (%s)\n", t.Name, t.Description)
		} else {
			feedbackEvery := time.Duration(0)
			if faultSpec != "" {
				// Store faults need feedback I/O to have something to hit.
				feedbackEvery = 30 * time.Minute
			}
			opts := campaign.Options{
				Scale: scale, Seed: seed, Workers: workers,
				FeedbackEvery: feedbackEvery, FaultSpec: faultSpec,
				WMInstances: wmInstances,
			}
			var err error
			if cfg, err = opts.Build(); err != nil {
				return err
			}
		}
		cfg.Telemetry = tel
		if tf.HeartbeatEvery > 0 {
			cfg.HeartbeatEvery = tf.HeartbeatEvery
			cfg.HeartbeatWriter = os.Stderr
		}
		start := time.Now()
		if traceIn == "" {
			fmt.Printf("== campaign replay (scale %.2f) ==\n", scale)
		}
		// Allocation stats bracket the replay; a GC cycle first gives the
		// deltas a clean epoch.
		runtime.GC()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		var err error
		res, err = campaign.Run(cfg)
		if err != nil {
			return err
		}
		replayWall := time.Since(start)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		fmt.Printf("replayed %d runs, %v, in %v (%d matcher visits, %.1f MB allocated, %d GCs)\n\n",
			res.RunsDone, res.TotalNodeHours, replayWall.Round(time.Millisecond),
			res.MatcherVisits,
			float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/(1<<20),
			msAfter.NumGC-msBefore.NumGC)
		if cfg.Faults != nil {
			fmt.Printf("chaos: %d node crashes, %d job hangs, %d wm restarts, %d store put errors, %d anomalies\n\n",
				res.NodeCrashes, res.JobHangs, res.WMRestarts, res.StorePutErrors, len(res.Anomalies))
		}
		if cfg.WMInstances > 1 {
			fmt.Printf("fleet: %d wm instances, %d crashes, %d adoptions, %d lease expirations\n\n",
				cfg.WMInstances, res.WMCrashes, res.WMAdoptions, res.LeaseExpirations)
		}
	}

	if all || want["table1"] {
		section("Table 1: runs at different computational scales", res.Table1Text())
	}
	if all || want["fig3"] {
		section("Figure 3: simulation length distributions", res.Fig3Text())
	}
	if all || want["fig4"] {
		section("Figure 4: per-scale simulation performance", res.Fig4Text())
	}
	if all || want["fig5"] {
		section("Figure 5: resource occupancy", res.Fig5Text())
	}
	if all || want["fig6"] {
		section("Figure 6: job scheduling history", res.Fig6Text())
	}
	if all || want["counts"] {
		section("§5.1 campaign counts", res.CountsText())
	}

	if all || want["fig7"] {
		counts := []int{1000, 5000, 10000, 20000, 40000, 70000}
		nodes := 8
		if full {
			nodes = 20 // the paper's Redis cluster size
		}
		rows, err := campaign.Fig7KVQueries(counts, nodes, 850)
		if err != nil {
			return err
		}
		section("Figure 7: in-memory DB feedback queries", campaign.Fig7Text(rows))
	}
	if all || want["fig8"] {
		r := campaign.Fig8AAFeedback(2000, 6, 2*time.Second, seed)
		section("Figure 8: AA-to-CG feedback latency", campaign.Fig8Text(r))
	}
	if all || want["fluxfix"] {
		nodes, jobs := 1000, 6000
		if full {
			nodes, jobs = 4000, 24000
		}
		r, err := campaign.FluxFix670(nodes, jobs)
		if err != nil {
			return err
		}
		section("Flux fix: first-match vs exhaustive matching", campaign.FluxFixText(r))
	}
	if all || want["taridx"] {
		files := 2000
		if full {
			files = 20000
		}
		dir, err := os.MkdirTemp("", "mummi-taridx")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := campaign.TaridxThroughput(dir, files, 156_000)
		if err != nil {
			return err
		}
		section("§5.2 taridx throughput", campaign.TaridxText(r))
	}
	if all || want["feedback12x"] {
		frames := 5000
		if full {
			frames = 20000
		}
		dir, err := os.MkdirTemp("", "mummi-fb")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := campaign.Feedback12x(dir, frames)
		if err != nil {
			return err
		}
		section("§4.2 feedback backends (the >12x claim)", campaign.FeedbackText(r))
	}
	if all || want["ml165x"] {
		fpsQ, binned := 35000, 1_000_000
		if full {
			binned = 9_000_000 // the campaign's 9M frame candidates
		}
		r, err := campaign.SelectorScaling(fpsQ, binned, workers, seed)
		if err != nil {
			return err
		}
		section("§4.4 selector scaling (the 165x claim)", campaign.SelectorText(r))
	}
	if all || want["bundling"] {
		r, err := campaign.BundlingAblation(16, 4, seed)
		if err != nil {
			return err
		}
		section("§4.3 bundling ablation", campaign.BundlingText(r))
	}
	if all || want["inventory"] {
		fractions := []float64{0.02, 0.1, 0.25, 0.5, 1.0}
		rows, err := campaign.InventoryAblation(fractions, seed)
		if err != nil {
			return err
		}
		section("§4.4 inventory ablation (readiness vs staleness)", campaign.InventoryText(rows))
	}

	return nil
}

// section prints one table or figure under its heading.
func section(name, body string) {
	fmt.Printf("== %s ==\n%s\n", name, body)
}
