// Package trace is the workload-trace layer: a versioned JSON
// workflow-instance format, in the spirit of WfCommons (arXiv 2105.14352),
// that makes every campaign a portable artifact instead of a
// hand-configured Go struct. A trace records everything that determines a
// replay — topology, scale regime, workload densities, selection knobs,
// scheduler configuration, fault plan, and seed — so a campaign can be
// exported, committed, diffed, imported, and replayed byte-identically on
// any machine.
//
// The codec is canonical: Marshal always produces the same bytes for the
// same trace, and Export→Import→Export round-trips byte-identically. Parse
// is strict (unknown fields and unknown schema versions are rejected), so
// a trace file is either exactly understood or refused.
//
// The package also ships a deterministic seeded generator (gen.go) that
// sweeps topology from laptop to Summit-class, both scale regimes,
// scheduler and selector choices, job-shape mixes, and fault plans — and a
// named-scenario catalog (catalog.go) whose committed instances under
// scenarios/ form the repo's regression-gated scenario matrix (see
// docs/SCENARIOS.md).
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/faults"
	"mummi/internal/sched"
	"mummi/internal/units"
)

// Schema is the trace-format identifier embedded in every instance. The
// compatibility rule is strict: a parser understands exactly one version,
// and any change to the field set — even an addition — bumps it (see
// docs/SCENARIOS.md, "Versioning"). One documented exception: the
// distributed-WM fleet work extended v1 in place with the required
// "coordination" section and the fault-rule "instance" field, and every
// committed scenario was regenerated in the same change — pre-extension
// v1 documents are rejected by Validate (missing coordination section)
// rather than silently replayed with a different meaning.
const Schema = "mummi-trace/v1"

// schemaFamily prefixes every version of the format; Parse uses it to
// distinguish "newer trace version" from "not a trace at all".
const schemaFamily = "mummi-trace/"

// Span is a time.Duration that marshals as a Go duration string ("6h0m0s")
// so traces stay human-readable and diffable. Unmarshal accepts any string
// time.ParseDuration does; Marshal always writes the canonical
// time.Duration.String() form.
type Span time.Duration

// MarshalJSON writes the canonical duration string.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(s).String())
}

// UnmarshalJSON parses a Go duration string.
func (s *Span) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return fmt.Errorf("duration must be a string like \"6h\": %w", err)
	}
	d, err := time.ParseDuration(str)
	if err != nil {
		return err
	}
	*s = Span(d)
	return nil
}

// RunShape is one topology row: Count allocations of Nodes nodes for Wall
// each (the Table 1 row shape).
type RunShape struct {
	// Nodes is the allocation's node count.
	Nodes int `json:"nodes"`
	// Wall is the allocation's wall-clock duration.
	Wall Span `json:"wall"`
	// Count is how many allocations of this shape run.
	Count int `json:"count"`
}

// ScaleSpec records the scale regime and the coupling split.
type ScaleSpec struct {
	// Mode is the scale regime: "three-scale" (continuum→CG→AA) or
	// "two-scale" (mini-MuMMI CG↔AA over an archived snapshot stream).
	Mode string `json:"mode"`
	// CGShare is the fraction of GPUs assigned to CG simulations.
	CGShare float64 `json:"cg_share"`
	// FeedbackEvery is the Task-4 feedback cadence; "0s" disables the
	// modeled feedback loops.
	FeedbackEvery Span `json:"feedback_every"`
}

// WorkloadSpec records the stochastic workload densities — the job-shape
// mix of the campaign.
type WorkloadSpec struct {
	// PatchesPerSnapshot is the patch yield of one continuum snapshot.
	PatchesPerSnapshot int `json:"patches_per_snapshot"`
	// FrameCandidatesPerUs is the AA-candidate yield per µs of CG trajectory.
	FrameCandidatesPerUs float64 `json:"frame_candidates_per_us"`
	// FrameCandidateSubsample thins the candidates inserted into the frame
	// selector (accounting reports full counts).
	FrameCandidateSubsample float64 `json:"frame_candidate_subsample"`
	// RetireMeanCGFs is the CG retirement-hazard mean in femtoseconds of
	// simulated time (exact integer encoding of units.SimTime).
	RetireMeanCGFs int64 `json:"retire_mean_cg_fs"`
	// RetireMeanAAFs is the AA retirement-hazard mean in femtoseconds.
	RetireMeanAAFs int64 `json:"retire_mean_aa_fs"`
	// MPIBugFraction is the fraction of campaign wall-time spent in the
	// miscompiled-MPI era (CG ~20% slow). Must be > 0; use a tiny value
	// (e.g. 1e-9) to effectively disable the era.
	MPIBugFraction float64 `json:"mpi_bug_fraction"`
	// FailuresPerDay injects random simulation-job failures (expected count
	// per day across the machine); 0 disables injection.
	FailuresPerDay float64 `json:"failures_per_day"`
}

// SelectionSpec records the dynamic-importance selection configuration.
type SelectionSpec struct {
	// InventoryFraction sizes the prepared-configuration inventory as a
	// fraction of each coupling's simulation slots.
	InventoryFraction float64 `json:"inventory_fraction"`
	// PatchQueueCap caps each patch-selector queue.
	PatchQueueCap int `json:"patch_queue_cap"`
	// FrameBins is the per-dimension bin count of the frame selector.
	FrameBins int `json:"frame_bins"`
	// SelectorWorkers sizes the rank-update fan-out (0 = GOMAXPROCS). It is
	// non-semantic: selection sequences are identical for every value, so
	// it only tunes replay wall-clock on the importing machine.
	SelectorWorkers int `json:"selector_workers"`
}

// SchedulerSpec records the scheduler configuration and its time model.
type SchedulerSpec struct {
	// Policy is the matching policy: "low-id-exhaustive" or "first-match".
	Policy string `json:"policy"`
	// Mode is the Q↔R communication mode: "sync" or "async".
	Mode string `json:"mode"`
	// SubmitPerMinute is the maestro submission throttle.
	SubmitPerMinute int `json:"submit_per_minute"`
	// PollEvery is the workflow manager's job-scan cadence.
	PollEvery Span `json:"poll_every"`
	// ProfileEvery is the occupancy profiler's cadence.
	ProfileEvery Span `json:"profile_every"`
	// SubmitMsgCost is the modeled cost of one submission message.
	SubmitMsgCost Span `json:"submit_msg_cost"`
	// StatusMsgCost is the modeled cost of one status message.
	StatusMsgCost Span `json:"status_msg_cost"`
	// VertexVisitCost is the modeled cost of one matcher vertex visit.
	VertexVisitCost Span `json:"vertex_visit_cost"`
	// ModelStatusLoad enables the Q-side status-poll load model.
	ModelStatusLoad bool `json:"model_status_load"`
}

// CoordinationSpec records the coordination-layer topology: how many
// workflow-manager instances share the campaign.
type CoordinationSpec struct {
	// WMInstances is the workflow-manager fleet size (>= 1). At 1 the
	// classic single-WM loop runs; above 1 the couplings are spread across
	// a lease-coordinated fleet (internal/wmfleet).
	WMInstances int `json:"wm_instances"`
}

// FaultRule enables one fault class (see internal/faults for semantics).
type FaultRule struct {
	// Class is the fault class name (one of faults.Classes).
	Class string `json:"class"`
	// Rate is a per-operation probability (store classes) or expected
	// events per day (timed classes).
	Rate float64 `json:"rate"`
	// Instance pins a wm-crash rule to one WM instance (1-based); zero
	// picks a random live instance per injection.
	Instance int `json:"instance,omitempty"`
	// Start/End bound the injection window; zero End leaves it open.
	Start Span `json:"start,omitempty"`
	// End closes the injection window.
	End Span `json:"end,omitempty"`
	// Latency is the modeled delay of a store-latency-spike hit.
	Latency Span `json:"latency,omitempty"`
	// Recovery is how long a crashed node stays drained.
	Recovery Span `json:"recovery,omitempty"`
}

// FaultSpec is the trace encoding of a faults.Plan.
type FaultSpec struct {
	// Seed drives the fault engine's random draws; 0 inherits the trace
	// seed on import.
	Seed int64 `json:"seed"`
	// Rules lists the enabled fault classes.
	Rules []FaultRule `json:"rules"`
}

// Trace is one workflow instance: everything that determines a campaign
// replay, as portable data.
type Trace struct {
	// Schema is the format version; always the package Schema constant.
	Schema string `json:"schema"`
	// Name identifies the scenario ([a-z0-9-], used as the file stem).
	Name string `json:"name"`
	// Description says what the scenario stresses.
	Description string `json:"description,omitempty"`
	// Seed is the campaign seed every random draw derives from.
	Seed int64 `json:"seed"`
	// Topology lists the allocation schedule.
	Topology []RunShape `json:"topology"`
	// Scales records the scale regime.
	Scales ScaleSpec `json:"scales"`
	// Workload records the stochastic densities.
	Workload WorkloadSpec `json:"workload"`
	// Selection records the selector configuration.
	Selection SelectionSpec `json:"selection"`
	// Scheduler records the scheduler configuration.
	Scheduler SchedulerSpec `json:"scheduler"`
	// Coordination records the WM fleet size.
	Coordination CoordinationSpec `json:"coordination"`
	// FaultPlan, when present, runs the campaign as a chaos replay.
	FaultPlan *FaultSpec `json:"fault_plan,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// FromConfig exports a campaign configuration as a trace. The config is
// normalized through campaign.Config.WithDefaults first, so the trace
// records the effective value of every knob — a trace never depends on
// what the defaults happen to be when it is read back.
func FromConfig(name, description string, cfg campaign.Config) (*Trace, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("trace: bad name %q (want [a-z0-9-], starting with [a-z0-9])", name)
	}
	cfg = cfg.WithDefaults()
	t := &Trace{
		Schema:      Schema,
		Name:        name,
		Description: description,
		Seed:        cfg.Seed,
		Scales: ScaleSpec{
			Mode:          string(cfg.Scales),
			CGShare:       cfg.CGShare,
			FeedbackEvery: Span(cfg.FeedbackEvery),
		},
		Workload: WorkloadSpec{
			PatchesPerSnapshot:      cfg.PatchesPerSnapshot,
			FrameCandidatesPerUs:    cfg.FrameCandidatesPerUs,
			FrameCandidateSubsample: cfg.FrameCandidateSubsample,
			RetireMeanCGFs:          cfg.RetireMeanCG.Femtoseconds(),
			RetireMeanAAFs:          cfg.RetireMeanAA.Femtoseconds(),
			MPIBugFraction:          cfg.MPIBugFraction,
			FailuresPerDay:          cfg.FailuresPerDay,
		},
		Selection: SelectionSpec{
			InventoryFraction: cfg.InventoryFraction,
			PatchQueueCap:     cfg.PatchQueueCap,
			FrameBins:         cfg.FrameBins,
			SelectorWorkers:   cfg.SelectorWorkers,
		},
		Scheduler: SchedulerSpec{
			Policy:          cfg.SchedPolicy.String(),
			Mode:            cfg.SchedMode.String(),
			SubmitPerMinute: cfg.SubmitPerMinute,
			PollEvery:       Span(cfg.PollEvery),
			ProfileEvery:    Span(cfg.ProfileEvery),
			SubmitMsgCost:   Span(cfg.SchedCosts.SubmitMsg),
			StatusMsgCost:   Span(cfg.SchedCosts.StatusMsg),
			VertexVisitCost: Span(cfg.SchedCosts.VertexVisit),
			ModelStatusLoad: cfg.ModelStatusLoad,
		},
		Coordination: CoordinationSpec{WMInstances: cfg.WMInstances},
	}
	for _, r := range cfg.Runs {
		t.Topology = append(t.Topology, RunShape{Nodes: r.Nodes, Wall: Span(r.Wall), Count: r.Count})
	}
	if cfg.Faults != nil {
		fp := &FaultSpec{Seed: cfg.Faults.Seed}
		for _, r := range cfg.Faults.Rules {
			fp.Rules = append(fp.Rules, FaultRule{
				Class: string(r.Class), Rate: r.Rate, Instance: r.Instance,
				Start: Span(r.Start), End: Span(r.End),
				Latency: Span(r.Latency), Recovery: Span(r.Recovery),
			})
		}
		t.FaultPlan = fp
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Config converts the trace back into the campaign configuration it
// records. The result carries no runtime attachments (telemetry,
// heartbeat); callers wire those afterwards. The conversion is the
// exact inverse of FromConfig: Config(FromConfig(cfg)) equals
// cfg.WithDefaults() field for field.
func (t *Trace) Config() (campaign.Config, error) {
	if err := t.Validate(); err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{
		Seed:                    t.Seed,
		Scales:                  campaign.ScaleMode(t.Scales.Mode),
		CGShare:                 t.Scales.CGShare,
		FeedbackEvery:           time.Duration(t.Scales.FeedbackEvery),
		PatchesPerSnapshot:      t.Workload.PatchesPerSnapshot,
		FrameCandidatesPerUs:    t.Workload.FrameCandidatesPerUs,
		FrameCandidateSubsample: t.Workload.FrameCandidateSubsample,
		RetireMeanCG:            units.SimTime(t.Workload.RetireMeanCGFs),
		RetireMeanAA:            units.SimTime(t.Workload.RetireMeanAAFs),
		MPIBugFraction:          t.Workload.MPIBugFraction,
		FailuresPerDay:          t.Workload.FailuresPerDay,
		InventoryFraction:       t.Selection.InventoryFraction,
		PatchQueueCap:           t.Selection.PatchQueueCap,
		FrameBins:               t.Selection.FrameBins,
		SelectorWorkers:         t.Selection.SelectorWorkers,
		SubmitPerMinute:         t.Scheduler.SubmitPerMinute,
		PollEvery:               time.Duration(t.Scheduler.PollEvery),
		ProfileEvery:            time.Duration(t.Scheduler.ProfileEvery),
		SchedCosts: sched.Costs{
			SubmitMsg:   time.Duration(t.Scheduler.SubmitMsgCost),
			StatusMsg:   time.Duration(t.Scheduler.StatusMsgCost),
			VertexVisit: time.Duration(t.Scheduler.VertexVisitCost),
		},
		ModelStatusLoad: t.Scheduler.ModelStatusLoad,
		WMInstances:     t.Coordination.WMInstances,
	}
	for _, r := range t.Topology {
		cfg.Runs = append(cfg.Runs, campaign.RunSpec{
			Nodes: r.Nodes, Wall: time.Duration(r.Wall), Count: r.Count,
		})
	}
	switch t.Scheduler.Policy {
	case sched.LowIDExhaustive.String():
		cfg.SchedPolicy = sched.LowIDExhaustive
	case sched.FirstMatch.String():
		cfg.SchedPolicy = sched.FirstMatch
	}
	switch t.Scheduler.Mode {
	case sched.Sync.String():
		cfg.SchedMode = sched.Sync
	case sched.Async.String():
		cfg.SchedMode = sched.Async
	}
	if t.FaultPlan != nil {
		plan := &faults.Plan{Seed: t.FaultPlan.Seed}
		for _, r := range t.FaultPlan.Rules {
			plan.Rules = append(plan.Rules, faults.Rule{
				Class: faults.Class(r.Class), Rate: r.Rate, Instance: r.Instance,
				Start: time.Duration(r.Start), End: time.Duration(r.End),
				Latency: time.Duration(r.Latency), Recovery: time.Duration(r.Recovery),
			})
		}
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// Validate checks the trace for internal consistency: name shape, schema
// version, topology sanity, regime and scheduler enums, workload ranges,
// and the fault plan (via faults.Plan.Validate). Every field a replay
// consults must be explicitly positive — a trace records effective values,
// never "zero means default".
func (t *Trace) Validate() error {
	if t.Schema != Schema {
		return fmt.Errorf("trace: schema %q (this build reads %q)", t.Schema, Schema)
	}
	if !nameRE.MatchString(t.Name) {
		return fmt.Errorf("trace: bad name %q (want [a-z0-9-], starting with [a-z0-9])", t.Name)
	}
	if len(t.Topology) == 0 {
		return fmt.Errorf("trace %s: empty topology", t.Name)
	}
	for i, r := range t.Topology {
		if r.Nodes < 2 {
			return fmt.Errorf("trace %s: topology[%d]: nodes %d < 2", t.Name, i, r.Nodes)
		}
		if r.Wall <= 0 {
			return fmt.Errorf("trace %s: topology[%d]: non-positive wall", t.Name, i)
		}
		if r.Count < 1 {
			return fmt.Errorf("trace %s: topology[%d]: count %d < 1", t.Name, i, r.Count)
		}
	}
	if !campaign.ScaleMode(t.Scales.Mode).Valid() {
		return fmt.Errorf("trace %s: unknown scale mode %q", t.Name, t.Scales.Mode)
	}
	if t.Scales.CGShare <= 0 || t.Scales.CGShare > 1 {
		return fmt.Errorf("trace %s: cg_share %g outside (0, 1]", t.Name, t.Scales.CGShare)
	}
	if t.Scales.FeedbackEvery < 0 {
		return fmt.Errorf("trace %s: negative feedback_every", t.Name)
	}
	w := t.Workload
	switch {
	case w.PatchesPerSnapshot < 1:
		return fmt.Errorf("trace %s: patches_per_snapshot %d < 1", t.Name, w.PatchesPerSnapshot)
	case w.FrameCandidatesPerUs <= 0:
		return fmt.Errorf("trace %s: non-positive frame_candidates_per_us", t.Name)
	case w.FrameCandidateSubsample <= 0 || w.FrameCandidateSubsample > 1:
		return fmt.Errorf("trace %s: frame_candidate_subsample %g outside (0, 1]", t.Name, w.FrameCandidateSubsample)
	case w.RetireMeanCGFs <= 0 || w.RetireMeanAAFs <= 0:
		return fmt.Errorf("trace %s: non-positive retirement mean", t.Name)
	case w.MPIBugFraction <= 0 || w.MPIBugFraction > 1:
		return fmt.Errorf("trace %s: mpi_bug_fraction %g outside (0, 1]", t.Name, w.MPIBugFraction)
	case w.FailuresPerDay < 0:
		return fmt.Errorf("trace %s: negative failures_per_day", t.Name)
	}
	sel := t.Selection
	switch {
	case sel.InventoryFraction <= 0 || sel.InventoryFraction > 1:
		return fmt.Errorf("trace %s: inventory_fraction %g outside (0, 1]", t.Name, sel.InventoryFraction)
	case sel.PatchQueueCap < 1:
		return fmt.Errorf("trace %s: patch_queue_cap %d < 1", t.Name, sel.PatchQueueCap)
	case sel.FrameBins < 1:
		return fmt.Errorf("trace %s: frame_bins %d < 1", t.Name, sel.FrameBins)
	case sel.SelectorWorkers < 0:
		return fmt.Errorf("trace %s: negative selector_workers", t.Name)
	}
	sc := t.Scheduler
	if sc.Policy != sched.LowIDExhaustive.String() && sc.Policy != sched.FirstMatch.String() {
		return fmt.Errorf("trace %s: unknown scheduler policy %q", t.Name, sc.Policy)
	}
	if sc.Mode != sched.Sync.String() && sc.Mode != sched.Async.String() {
		return fmt.Errorf("trace %s: unknown scheduler mode %q", t.Name, sc.Mode)
	}
	if sc.SubmitPerMinute < 1 {
		return fmt.Errorf("trace %s: submit_per_minute %d < 1", t.Name, sc.SubmitPerMinute)
	}
	if sc.PollEvery <= 0 || sc.ProfileEvery <= 0 {
		return fmt.Errorf("trace %s: non-positive poll_every/profile_every", t.Name)
	}
	if sc.SubmitMsgCost < 0 || sc.StatusMsgCost < 0 || sc.VertexVisitCost < 0 {
		return fmt.Errorf("trace %s: negative scheduler cost", t.Name)
	}
	if sc.SubmitMsgCost == 0 && sc.StatusMsgCost == 0 && sc.VertexVisitCost == 0 {
		return fmt.Errorf("trace %s: all scheduler costs zero (campaign would re-default them)", t.Name)
	}
	if t.Coordination.WMInstances < 1 {
		return fmt.Errorf("trace %s: wm_instances %d < 1 (a trace records effective values; pre-extension v1 documents must be regenerated)",
			t.Name, t.Coordination.WMInstances)
	}
	if t.FaultPlan != nil {
		plan := faults.Plan{Seed: t.FaultPlan.Seed}
		for _, r := range t.FaultPlan.Rules {
			plan.Rules = append(plan.Rules, faults.Rule{
				Class: faults.Class(r.Class), Rate: r.Rate, Instance: r.Instance,
				Start: time.Duration(r.Start), End: time.Duration(r.End),
				Latency: time.Duration(r.Latency), Recovery: time.Duration(r.Recovery),
			})
		}
		if err := plan.Validate(); err != nil {
			return fmt.Errorf("trace %s: fault plan: %w", t.Name, err)
		}
	}
	return nil
}

// Marshal renders the trace in canonical form: two-space indented JSON
// with a trailing newline, fields in declaration order, durations in
// time.Duration.String() form. Equal traces always marshal to equal bytes,
// which is what makes committed scenario files diffable and the
// Export→Import→Export round-trip byte-identical.
func (t *Trace) Marshal() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Parse decodes and validates a trace document. It is strict: unknown
// fields are rejected (a field this build does not understand could change
// the replay), as is any schema version other than the package's own —
// including newer versions of the family, which get a distinct error so
// the operator knows to upgrade rather than to suspect corruption.
func Parse(data []byte) (*Trace, error) {
	// Peek at the schema with a lenient decode first, so version mismatch
	// is reported as such instead of as an unknown-field error.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("trace: not a JSON trace: %w", err)
	}
	if head.Schema != Schema {
		if len(head.Schema) >= len(schemaFamily) && head.Schema[:len(schemaFamily)] == schemaFamily {
			return nil, fmt.Errorf("trace: schema %q is a different trace version (this build reads %q)",
				head.Schema, Schema)
		}
		return nil, fmt.Errorf("trace: schema %q is not a %s* trace", head.Schema, schemaFamily)
	}
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: bad document: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trace: trailing data after document")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
