package main

// metricDef names one metric; BENCHMARK.json repeats the catalogue and a
// test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the costs a user of the system sees. failed_frac is the
// seventh: it is 0 on every workload, so it has no relative bound and
// travels as the contract's failed/attempted pair (any increase is a
// regression) instead of as a BENCHMARK.json metric.
//
// The bounds come from measurement: each is about three times the widest
// ten-seed spread README.md records for it, and at most the 25% a bound may be.
var endToEnd = []struct {
	metricDef
	// bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression.
	bound float64
	// floor is an absolute difference that never counts, whatever its
	// share: a replay sets up in 3 ms, where 25% is far inside the noise.
	floor float64
	of    func(childResult) float64
}{
	{metricDef{"setup_s", "s", "lower"}, 0.25, 0.25, func(r childResult) float64 { return r.SetupS }},
	{metricDef{"wall_s", "s", "lower"}, 0.25, 0, func(r childResult) float64 { return r.WallS }},
	{metricDef{"work_per_s", "work/s", "higher"}, 0.25, 0, func(r childResult) float64 { return r.Work / r.WallS }},
	{metricDef{"cpu_s", "s", "lower"}, 0.25, 0, func(r childResult) float64 { return r.CPUS }},
	{metricDef{"alloc_mb", "MB", "lower"}, 0.15, 0, func(r childResult) float64 { return r.AllocMB }},
	{metricDef{"peak_rss_mb", "MB", "lower"}, 0.25, 0, func(r childResult) float64 { return r.PeakRSSMB }},
}

// perLayer is the ledger of a traced run. Every workload reports every
// name; a layer a workload does not reach reads 0. exact marks the counts
// that repeat exactly for a fixed seed.
var perLayer = []struct {
	metricDef
	exact bool
}{
	// Sampled CPU, charged by the rule in attrib.go. The thirteen layers
	// sum to layers.cpu_sum_s; dynim.fps/dynim.binned split dynim and
	// ckpt overlays all layers.
	{metricDef{"dynim.cpu_s", "s", "lower"}, false},
	{metricDef{"dynim.fps.cpu_s", "s", "lower"}, false},
	{metricDef{"dynim.binned.cpu_s", "s", "lower"}, false},
	{metricDef{"core.cpu_s", "s", "lower"}, false},
	{metricDef{"campaign.cpu_s", "s", "lower"}, false},
	{metricDef{"sched.cpu_s", "s", "lower"}, false},
	{metricDef{"vclock.cpu_s", "s", "lower"}, false},
	{metricDef{"wmfleet.cpu_s", "s", "lower"}, false},
	{metricDef{"datastore.cpu_s", "s", "lower"}, false},
	{metricDef{"kvstore.cpu_s", "s", "lower"}, false},
	{metricDef{"feedback.cpu_s", "s", "lower"}, false},
	{metricDef{"sim.cpu_s", "s", "lower"}, false},
	{metricDef{"telemetry.cpu_s", "s", "lower"}, false},
	{metricDef{"runtime.gc_bg.cpu_s", "s", "lower"}, false},
	{metricDef{"other.cpu_s", "s", "lower"}, false},
	{metricDef{"layers.cpu_sum_s", "s", "lower"}, false},
	{metricDef{"ckpt.cpu_s", "s", "lower"}, false},

	// Counts from the program's telemetry registry and campaign.Result.
	{metricDef{"sched.submitted", "count", "lower"}, true},
	{metricDef{"sched.started", "count", "lower"}, true},
	{metricDef{"sched.completed", "count", "higher"}, true},
	{metricDef{"sched.failed", "count", "lower"}, true},
	{metricDef{"sched.matches", "count", "lower"}, true},
	{metricDef{"sched.match_visits", "count", "lower"}, true},
	{metricDef{"sched.match_blocked_frac", "ratio", "lower"}, true},
	{metricDef{"core.candidates", "count", "higher"}, true},
	{metricDef{"core.selections", "count", "higher"}, true},
	{metricDef{"core.polls", "count", "lower"}, true},
	{metricDef{"core.setups_launched", "count", "lower"}, true},
	{metricDef{"core.setup_fail_frac", "ratio", "lower"}, true},
	{metricDef{"core.sims_launched", "count", "lower"}, true},
	{metricDef{"core.sim_fail_frac", "ratio", "lower"}, true},
	{metricDef{"core.feedback_runs", "count", "higher"}, true},
	{metricDef{"dynim.selected", "count", "higher"}, true},
	{metricDef{"dynim.select_frac", "ratio", "higher"}, true},
	{metricDef{"datastore.ops", "count", "lower"}, true},
	{metricDef{"datastore.retries", "count", "lower"}, true},
	{metricDef{"datastore.retry_frac", "ratio", "lower"}, true},
	{metricDef{"datastore.write_mb", "MB", "lower"}, true},
	{metricDef{"datastore.exhausted_retries", "count", "lower"}, true},
	{metricDef{"faults.injected", "count", "lower"}, true},
	{metricDef{"wmfleet.crashes", "count", "lower"}, true},
	{metricDef{"wmfleet.adoptions", "count", "lower"}, true},
	{metricDef{"wmfleet.lease_renewals", "count", "lower"}, true},
	{metricDef{"campaign.runs_done", "count", "higher"}, true},
	{metricDef{"campaign.node_hours", "node-hours", "higher"}, true},
	{metricDef{"campaign.gpu_mean_pct", "%", "higher"}, true},
	// The Go runtime's own counts depend on GC timing and do not repeat.
	{metricDef{"runtime.gc_cycles", "count", "lower"}, false},
	{metricDef{"runtime.alloc_objects", "count", "lower"}, false},

	// Spans the benchmark records around its own calls into a layer.
	{metricDef{"campaign.new_s", "s", "lower"}, false},
	{metricDef{"campaign.run_s", "s", "lower"}, false},
	{metricDef{"bench.digest_s", "s", "lower"}, false},
	{metricDef{"datastore.put_busy_s", "s", "lower"}, false},
	{metricDef{"datastore.put_p50_us", "us", "lower"}, false},
	{metricDef{"datastore.put_p99_us", "us", "lower"}, false},
	{metricDef{"datastore.put_p999_us", "us", "lower"}, false},
	{metricDef{"feedback.scan_s", "s", "lower"}, false},
	{metricDef{"feedback.fetch_s", "s", "lower"}, false},
	{metricDef{"feedback.process_s", "s", "lower"}, false},
	{metricDef{"feedback.tag_s", "s", "lower"}, false},
	{metricDef{"feedback.iter_p50_ms", "ms", "lower"}, false},
	{metricDef{"feedback.iter_p80_ms", "ms", "lower"}, false},
	{metricDef{"feedback.scan_growth_x", "x", "lower"}, false},
	{metricDef{"kvstore.keys_final", "count", "higher"}, true},

	// The harness's own readings.
	{metricDef{"host.probe_ms", "ms", "lower"}, false},
	{metricDef{"host.probe_spread_pct", "%", "lower"}, false},
	{metricDef{"host.noisy_reps", "count", "lower"}, false},
	{metricDef{"trace.cpu_s", "s", "lower"}, false},
	{metricDef{"trace.overhead_pct", "%", "lower"}, false},
}
