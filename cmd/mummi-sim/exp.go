package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mummi/internal/campaign"
)

// experiment is one row of the paper's evaluation (§5, EXPERIMENTS.md): a
// table, a figure, or a headline scaling claim.
type experiment struct {
	name, title string
	// needsReplay marks the rows that read the one shared virtual-time
	// campaign replay; the systems experiments (experiments.go) run
	// directly against the real components.
	needsReplay bool
	body        func(x expInput) (string, error)
}

// expInput is what an experiment body may read.
type expInput struct {
	res     *campaign.Result // nil unless a selected row needs the replay
	seed    int64
	workers int
	full    bool
}

// size picks a systems experiment's problem size: scaled, or -full.
func (x expInput) size(scaled, full int) int {
	if x.full {
		return full
	}
	return scaled
}

// replayed adapts a Result text method into an experiment body.
func replayed(text func(*campaign.Result) string) func(expInput) (string, error) {
	return func(x expInput) (string, error) { return text(x.res), nil }
}

// rendered formats an experiment's result as text, or passes its error on.
func rendered[R any](text func(R) string) func(R, error) (string, error) {
	return func(r R, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return text(r), nil
	}
}

// experiments is the evaluation in print order.
var experiments = []experiment{
	{"table1", "Table 1: runs at different computational scales", true, replayed((*campaign.Result).Table1Text)},
	{"fig3", "Figure 3: simulation length distributions", true, replayed((*campaign.Result).Fig3Text)},
	{"fig4", "Figure 4: per-scale simulation performance", true, replayed((*campaign.Result).Fig4Text)},
	{"fig5", "Figure 5: resource occupancy", true, replayed((*campaign.Result).Fig5Text)},
	{"fig6", "Figure 6: job scheduling history", true, replayed((*campaign.Result).Fig6Text)},
	{"counts", "§5.1 campaign counts", true, replayed((*campaign.Result).CountsText)},
	{"fig7", "Figure 7: in-memory DB feedback queries", false, func(x expInput) (string, error) {
		// -full is the paper's Redis cluster size.
		return rendered(fig7Text)(fig7KVQueries([]int{1000, 5000, 10000, 20000, 40000, 70000}, x.size(8, 20), 850))
	}},
	{"fig8", "Figure 8: AA-to-CG feedback latency", false, func(x expInput) (string, error) {
		return fig8Text(fig8AAFeedback(2000, 6, 2*time.Second, x.seed)), nil
	}},
	{"fluxfix", "Flux fix: first-match vs exhaustive matching", false, func(x expInput) (string, error) {
		return rendered(fluxFixText)(fluxFix670(x.size(1000, 4000), x.size(6000, 24000)))
	}},
	{"taridx", "§5.2 taridx throughput", false, func(x expInput) (string, error) {
		dir, err := os.MkdirTemp("", "mummi-taridx")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		return rendered(taridxText)(taridxThroughput(dir, x.size(2000, 20000), 156_000))
	}},
	{"feedback12x", "§4.2 feedback backends (the >12x claim)", false, func(x expInput) (string, error) {
		dir, err := os.MkdirTemp("", "mummi-fb")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		return rendered(feedbackText)(feedback12x(dir, x.size(5000, 20000)))
	}},
	{"ml165x", "§4.4 selector scaling (the 165x claim)", false, func(x expInput) (string, error) {
		// -full is the campaign's 9M frame candidates.
		return rendered(selectorText)(selectorScaling(35000, x.size(1_000_000, 9_000_000), x.workers, x.seed))
	}},
	{"bundling", "§4.3 bundling ablation", false, func(x expInput) (string, error) {
		return rendered(bundlingText)(bundlingAblation(16, 4, x.seed))
	}},
	{"inventory", "§4.4 inventory ablation (readiness vs staleness)", false, func(x expInput) (string, error) {
		return rendered(inventoryText)(inventoryAblation([]float64{0.02, 0.1, 0.25, 0.5, 1.0}, x.seed))
	}},
}

// selectExperiments resolves -exp — comma-separated names, or "all" — to
// rows of the table, in table order.
func selectExperiments(spec string) ([]experiment, error) {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	want := map[string]bool{}
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "all" {
			return experiments, nil
		}
		if !slices.Contains(names, n) {
			return nil, fmt.Errorf("unknown experiment %q (want all or any of %s)", n, strings.Join(names, ", "))
		}
		want[n] = true
	}
	var rows []experiment
	for _, e := range experiments {
		if want[e.name] {
			rows = append(rows, e)
		}
	}
	return rows, nil
}

// runExp regenerates the paper's evaluation. The wall-clock figures inside
// some tables are one unrepeated run; performance is measured by bench/.
func runExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiments (see README.md), or all")
	full := fs.Bool("full", false, "run systems experiments at full paper scale (slower)")
	var c campaignFlags
	c.register(fs, expCmd)
	c.tel.Register(fs)
	fs.Parse(args)

	rows, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	cfg, err := c.resolve()
	if err != nil {
		return err
	}
	x := expInput{seed: cfg.Seed, workers: c.opts.Workers, full: *full}
	if slices.ContainsFunc(rows, func(e experiment) bool { return e.needsReplay }) {
		if c.scenario == nil {
			fmt.Printf("== campaign replay (scale %.2f) ==\n", c.opts.Scale)
		}
		if x.res, err = c.replay(cfg); err != nil {
			return err
		}
		fmt.Println()
	}
	for _, e := range rows {
		body, err := e.body(x)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", e.title, body)
	}
	return nil
}
