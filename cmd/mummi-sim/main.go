// Command mummi-sim is the repository's one campaign CLI and its component
// toolbox; README.md ("Commands") is the reference for every subcommand
// and flag.
//
// The paper deploys MuMMI "not only within large HPC environments but also
// on standard laptop computers (for testing and use of individual
// components)" (§4.5): continuum, patches, select, cg and feedback each
// read and write real files, so stages can be chained, inspected, and
// swapped. campaign replays a scaled campaign with the full observability
// surface (docs/OBSERVABILITY.md), exp regenerates the paper's tables and
// figures (EXPERIMENTS.md), and trace works with workflow instances —
// portable JSON descriptions of a campaign (docs/SCENARIOS.md):
//
//	mummi-sim campaign -scale 0.05 -trace trace.json -metrics metrics.json
//	mummi-sim exp -exp table1,counts,fig5
//	mummi-sim trace export -scale 0.05 -out my.trace.json
//	mummi-sim campaign -trace-in my.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/continuum"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/errutil"
	"mummi/internal/feedback"
	"mummi/internal/fsstore"
	"mummi/internal/mlenc"
	"mummi/internal/patch"
	"mummi/internal/sim"
	"mummi/internal/telemetry"
	"mummi/internal/trace"
	"mummi/internal/units"
)

var subcommands = map[string]func(args []string) error{
	"continuum": runContinuum, "patches": runPatches, "select": runSelect, "cg": runCG,
	"feedback": runFeedback, "campaign": runCampaign, "exp": runExp, "trace": runTrace,
}

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: mummi-sim continuum|patches|select|cg|feedback|campaign|exp|trace [flags]"))
	}
	run, ok := subcommands[os.Args[1]]
	if !ok {
		fatal(fmt.Errorf("unknown subcommand %q", os.Args[1]))
	}
	if err := run(os.Args[2:]); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mummi-sim:", err)
	os.Exit(1)
}

// campaignFlags is the one declaration of the campaign flag set; the
// campaign, exp and trace export subcommands differ only in the defaults
// they hand to register. The two that replay also register tel.
type campaignFlags struct {
	fs      *flag.FlagSet
	opts    campaign.Options
	traceIn string
	tel     telemetry.Flags
	// scenario is the workflow instance resolve read for -trace-in.
	scenario *trace.Trace
}

// campaignDefaults is what differs between those subcommands.
type campaignDefaults struct {
	scale         float64
	feedbackEvery time.Duration
}

var (
	campaignCmd = campaignDefaults{scale: 0.05, feedbackEvery: 30 * time.Minute} // and trace export
	expCmd      = campaignDefaults{scale: 0.25}
)

// register declares the campaign flags on fs.
func (c *campaignFlags) register(fs *flag.FlagSet, d campaignDefaults) {
	c.fs = fs
	o := &c.opts
	fs.Float64Var(&o.Scale, "scale", d.scale, "paper-schedule scale factor (1.0 = full 600,600 node-hours)")
	fs.Int64Var(&o.Seed, "seed", 1, "seed")
	fs.StringVar((*string)(&o.Scales), "scales", string(campaign.ThreeScale),
		"scale regime: three-scale (continuum+CG+AA) or two-scale (mini-MuMMI CG+AA)")
	fs.DurationVar(&o.FeedbackEvery, "feedback-every", d.feedbackEvery,
		"Task-4 feedback cadence in campaign virtual time (0 = off)")
	fs.StringVar(&o.FaultSpec, "faults", "",
		"chaos plan: JSON file, inline JSON, or 'class:rate;...' spec (see docs/RESILIENCE.md; empty = no faults)")
	fs.IntVar(&o.WMInstances, "wm-instances", 1,
		"workflow-manager fleet size (>1 spreads couplings across a lease-coordinated fleet; see docs/RESILIENCE.md)")
	fs.StringVar(&c.traceIn, "trace-in", "",
		"take the campaign from this workflow instance instead of the flags above (see docs/SCENARIOS.md)")
	fs.IntVar(&o.Workers, "workers", 0,
		"selector rank-update fan-out (0 = GOMAXPROCS; output identical for any value)")
}

// resolve turns the parsed flags into a campaign configuration: the one
// named by -trace-in, or the one the configuration flags build.
func (c *campaignFlags) resolve() (campaign.Config, error) {
	if c.traceIn == "" {
		return c.opts.Build()
	}
	// A trace is a complete configuration: mixing it with the flag-based
	// knobs would silently shadow the committed scenario, so refuse. Only
	// the non-semantic -workers may ride along.
	var conflict []string
	c.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale", "seed", "scales", "feedback-every", "faults", "wm-instances":
			conflict = append(conflict, "-"+f.Name)
		}
	})
	if len(conflict) > 0 {
		return campaign.Config{}, fmt.Errorf("-trace-in replaces the campaign configuration; drop %s", strings.Join(conflict, ", "))
	}
	t, err := readTrace(c.traceIn)
	if err != nil {
		return campaign.Config{}, err
	}
	cfg, err := t.Config()
	if err != nil {
		return campaign.Config{}, err
	}
	if c.opts.Workers != 0 {
		cfg.SelectorWorkers = c.opts.Workers
	}
	c.scenario = t
	return cfg, nil
}

// replay runs the resolved campaign with the telemetry the flags ask for
// and prints its summary: the chaos and fleet ledgers when the
// configuration has faults or a fleet, and where the artifacts went.
// Telemetry is built here, after resolve, so a rejected command line never
// opens -metrics-addr.
func (c *campaignFlags) replay(cfg campaign.Config) (*campaign.Result, error) {
	if c.scenario != nil {
		fmt.Printf("campaign: replaying scenario %s (%s)\n", c.scenario.Name, c.scenario.Description)
	}
	tel, srv, err := c.tel.Build()
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = tel
	if c.tel.HeartbeatEvery > 0 {
		cfg.HeartbeatEvery = c.tel.HeartbeatEvery
		cfg.HeartbeatWriter = os.Stderr
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "campaign: serving metrics on http://%s/metrics\n", srv.Addr())
	}

	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("campaign: %d runs, %v replayed in %v\n",
		res.RunsDone, res.TotalNodeHours, time.Since(start).Round(time.Millisecond))
	if cfg.Faults != nil {
		fmt.Printf("campaign: chaos %d node crashes, %d job hangs, %d wm restarts, %d store put errors, %d anomalies\n",
			res.NodeCrashes, res.JobHangs, res.WMRestarts, res.StorePutErrors, len(res.Anomalies))
		for _, a := range res.Anomalies {
			fmt.Println("  " + a)
		}
	}
	if cfg.WMInstances > 1 {
		fmt.Printf("campaign: fleet %d wm instances, %d crashes, %d adoptions, %d lease expirations\n",
			cfg.WMInstances, res.WMCrashes, res.WMAdoptions, res.LeaseExpirations)
	}

	if err := c.tel.Finish(tel, srv); err != nil {
		return nil, err
	}
	if c.tel.TracePath != "" {
		fmt.Printf("campaign: trace %d spans (%d dropped) -> %s\n",
			tel.Tracer().Len(), tel.Tracer().Dropped(), c.tel.TracePath)
	}
	if c.tel.MetricsPath != "" {
		fmt.Printf("campaign: metrics snapshot -> %s\n", c.tel.MetricsPath)
	}
	return res, nil
}

// runCampaign replays a scaled campaign — the example campaign of
// docs/OBSERVABILITY.md. The default scale finishes in seconds on a laptop
// while still exercising every instrumented layer (all four
// workflow-manager tasks, the scheduler, and the feedback store).
func runCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var c campaignFlags
	c.register(fs, campaignCmd)
	c.tel.Register(fs)
	fs.Parse(args)

	cfg, err := c.resolve()
	if err != nil {
		return err
	}
	_, err = c.replay(cfg)
	return err
}

// readTrace loads and validates a workflow instance file.
func readTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := trace.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// writeTrace writes a workflow instance in canonical encoding.
func writeTrace(path string, t *trace.Trace) error {
	b, err := t.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runTrace is the workflow-instance toolbox: export a configuration as a
// trace, import (validate and summarize) one, or generate a deterministic
// scenario sweep. The format and the committed scenario catalog are
// documented in docs/SCENARIOS.md.
func runTrace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: mummi-sim trace export|import|gen [flags]")
	}
	switch args[0] {
	case "export":
		return runTraceExport(args[1:])
	case "import":
		return runTraceImport(args[1:])
	case "gen":
		return runTraceGen(args[1:])
	default:
		return fmt.Errorf("unknown trace subcommand %q (want export, import, or gen)", args[0])
	}
}

// runTraceExport builds a campaign configuration from the flags the
// campaign subcommand takes and writes it as a workflow instance.
func runTraceExport(args []string) error {
	fs := flag.NewFlagSet("trace export", flag.ExitOnError)
	var c campaignFlags
	c.register(fs, campaignCmd)
	name := fs.String("name", "exported", "scenario name to record in the trace")
	desc := fs.String("desc", "exported by mummi-sim trace export", "scenario description")
	out := fs.String("out", "", "output file (default: <name>.trace.json)")
	fs.Parse(args)

	cfg, err := c.resolve()
	if err != nil {
		return err
	}
	t, err := trace.FromConfig(*name, *desc, cfg)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *name + ".trace.json"
	}
	if err := writeTrace(path, t); err != nil {
		return err
	}
	fmt.Printf("trace: exported %s -> %s\n", t.Name, path)
	return nil
}

// runTraceImport validates a workflow instance and prints its summary.
// With -out it re-exports the parsed trace in canonical encoding, which
// normalizes hand-edited files and (diffed against the input) proves the
// import/export round trip is byte-exact.
func runTraceImport(args []string) error {
	fs := flag.NewFlagSet("trace import", flag.ExitOnError)
	in := fs.String("in", "", "workflow instance to import (required)")
	out := fs.String("out", "", "re-export the trace canonically to this file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("trace import: -in is required")
	}
	t, err := readTrace(*in)
	if err != nil {
		return err
	}
	var nodes, count int
	var wall time.Duration
	for _, r := range t.Topology {
		if r.Nodes > nodes {
			nodes = r.Nodes
		}
		count += r.Count
		wall += time.Duration(r.Wall) * time.Duration(r.Count)
	}
	fmt.Printf("trace: %s (%s)\n", t.Name, t.Schema)
	fmt.Printf("  %s\n", t.Description)
	fmt.Printf("  seed %d, %d allocation(s) up to %d nodes, %v total wall\n",
		t.Seed, count, nodes, wall)
	fmt.Printf("  %s regime, %s/%s scheduler", t.Scales.Mode, t.Scheduler.Policy, t.Scheduler.Mode)
	if t.FaultPlan != nil {
		fmt.Printf(", %d fault rule(s)", len(t.FaultPlan.Rules))
	}
	fmt.Println()
	if *out != "" {
		if err := writeTrace(*out, t); err != nil {
			return err
		}
		fmt.Printf("trace: canonical re-export -> %s\n", *out)
	}
	return nil
}

// runTraceGen writes a deterministic scenario sweep (or, with -catalog,
// the named scenario matrix committed under scenarios/) as one
// <name>.trace.json per instance.
func runTraceGen(args []string) error {
	fs := flag.NewFlagSet("trace gen", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "sweep seed (same seed+n = byte-identical traces)")
	n := fs.Int("n", 6, "instances to generate")
	outdir := fs.String("outdir", ".", "output directory")
	catalog := fs.Bool("catalog", false, "write the named scenario catalog instead of a seeded sweep")
	fs.Parse(args)

	var traces []*trace.Trace
	var err error
	if *catalog {
		traces, err = trace.Catalog()
	} else {
		traces, err = trace.Gen(*seed, *n)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	for _, t := range traces {
		path := filepath.Join(*outdir, t.Name+".trace.json")
		if err := writeTrace(path, t); err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", path)
	}
	fmt.Printf("trace: %d workflow instance(s) -> %s\n", len(traces), *outdir)
	return nil
}

// runContinuum evolves the macro model and writes a snapshot file.
func runContinuum(args []string) (err error) {
	fs := flag.NewFlagSet("continuum", flag.ExitOnError)
	grid := fs.Int("grid", 120, "grid resolution per side (paper: 2400)")
	proteins := fs.Int("proteins", 30, "protein count")
	us := fs.Float64("us", 2, "simulated time to advance (µs)")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "parallel stripes (0 = all cores)")
	out := fs.String("out", "snapshot.gs2d", "output snapshot file")
	fs.Parse(args)

	cfg := continuum.DefaultConfig()
	cfg.GridN = *grid
	cfg.Proteins = *proteins
	cfg.Seed = *seed
	s, err := continuum.NewParallel(cfg, *workers)
	if err != nil {
		return err
	}
	s.Step(units.SimTimeOf(*us, units.Microsecond))
	snap := s.Snapshot()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// The snapshot is buffered through the file: a failed close is a
	// truncated snapshot and must fail the command.
	defer errutil.CaptureClose(&err, f.Close)
	n, err := snap.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("continuum: advanced %v on %d workers; snapshot %s (%s, %d species, %d proteins)\n",
		s.Time(), s.Workers(), *out, units.ByteSize(n), len(snap.Fields), len(snap.Protein))
	return nil
}

// runPatches cuts patches from a snapshot file into a directory.
func runPatches(args []string) error {
	fs := flag.NewFlagSet("patches", flag.ExitOnError)
	in := fs.String("in", "snapshot.gs2d", "input snapshot")
	outdir := fs.String("outdir", "patches", "output directory")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	snap, err := continuum.ReadSnapshot(f)
	f.Close() //lint:allow errdiscipline -- read-side close; ReadSnapshot already surfaced any data error
	if err != nil {
		return err
	}
	ps, err := patch.CreateAll(snap, patch.DefaultSize, patch.DefaultGridN)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	var bytes int
	for _, p := range ps {
		b, err := p.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outdir, p.ID+".npy"), b, 0o644); err != nil {
			return err
		}
		bytes += len(b)
	}
	fmt.Printf("patches: %d patches (%s) from %s into %s/\n",
		len(ps), units.ByteSize(bytes), *in, *outdir)
	return nil
}

// runSelect encodes every patch in a directory and farthest-point-selects n.
func runSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	indir := fs.String("indir", "patches", "patch directory")
	n := fs.Int("n", 5, "selections to make")
	seed := fs.Int64("seed", 7, "encoder seed")
	fs.Parse(args)

	ents, err := os.ReadDir(*indir)
	if err != nil {
		return err
	}
	var enc *mlenc.PatchEncoder
	sel := dynim.NewFarthestPoint(9, 0)
	loaded := 0
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".npy") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(*indir, e.Name()))
		if err != nil {
			return err
		}
		p, err := patch.Unmarshal(b)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		if enc == nil {
			enc, err = mlenc.NewPatchEncoder(len(p.Fields), p.GridN, 9, *seed)
			if err != nil {
				return err
			}
		}
		coords, err := enc.Encode(p)
		if err != nil {
			return err
		}
		if err := sel.Add(dynim.Point{ID: p.ID, Coords: coords}); err != nil {
			return err
		}
		loaded++
	}
	if loaded == 0 {
		return fmt.Errorf("no patches in %s", *indir)
	}
	chosen := sel.Select(*n)
	fmt.Printf("select: %d candidates, %d selected by novelty:\n", loaded, len(chosen))
	for _, p := range chosen {
		fmt.Printf("  %s\n", p.ID)
	}
	return nil
}

// runCG generates a CG analysis stream into a directory of frame files.
func runCG(args []string) error {
	fs := flag.NewFlagSet("cg", flag.ExitOnError)
	id := fs.String("id", "sim01", "simulation id")
	frames := fs.Int("frames", 50, "frames to produce")
	species := fs.Int("species", 14, "lipid species count")
	state := fs.Int("state", 1, "protein configuration state")
	seed := fs.Int64("seed", 3, "seed")
	outdir := fs.String("outdir", "frames", "output directory")
	fs.Parse(args)

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	g := sim.NewCGSim(*id, *species, *state, nil, *seed)
	for i := 0; i < *frames; i++ {
		fr := g.NextFrame()
		b, err := fr.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outdir, fr.ID()+".json"), b, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("cg: %s produced %d frames (%v of trajectory) into %s/\n",
		*id, g.Frames(), g.SimTime(), *outdir)
	return nil
}

// runFeedback aggregates a directory of CG frames into coupling parameters.
func runFeedback(args []string) error {
	fs := flag.NewFlagSet("feedback", flag.ExitOnError)
	indir := fs.String("indir", "frames", "frame directory")
	species := fs.Int("species", 14, "lipid species count")
	states := fs.Int("states", continuum.NumProteinStates, "protein states")
	fs.Parse(args)

	// Stage the directory into a filesystem store namespace, then run one
	// real feedback iteration over it.
	dir, err := os.MkdirTemp("", "mummi-fb")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := fsstore.New(dir)
	if err != nil {
		return err
	}
	var _ datastore.Store = store
	ents, err := os.ReadDir(*indir)
	if err != nil {
		return err
	}
	staged := 0
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(*indir, e.Name()))
		if err != nil {
			return err
		}
		if err := store.Put("new", strings.TrimSuffix(e.Name(), ".json"), b); err != nil {
			return err
		}
		staged++
	}
	var got [][]float64
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: store, NewNS: "new", DoneNS: "done",
		Species: *species, States: *states,
		Apply: func(c [][]float64) error { got = c; return nil },
	})
	if err != nil {
		return err
	}
	rep, err := fb.Iterate()
	if err != nil {
		return err
	}
	fmt.Printf("feedback: %d/%d frames aggregated in %v\n", rep.Frames, staged, rep.Total())
	if got != nil {
		fmt.Println("couplings (state x species):")
		for st, row := range got {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = fmt.Sprintf("%.3f", v)
			}
			fmt.Printf("  state %d: %s\n", st, strings.Join(cells, " "))
		}
	}
	return nil
}
