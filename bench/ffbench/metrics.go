package main

// metricDecl declares one metric: BENCHMARK.json lists exactly these, and
// the tier-1 test keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the system sees; an untraced run
// reports exactly these, on every workload.
//
// Every bound is the widest the benchmark contract allows. On the 2-core box
// the baseline was measured on, ten runs of one commit on ten seeds spread by
// 3-20 % (interquartile, as a share of the median), the same inputs repeat
// within 3-6 % at best, and the box — whose second core is there only part
// of the time — drifts by 15-25 % over tens of minutes; a bound is only
// usable at about three times the spread. See bench/README.md, "Baseline".
var endToEndMetrics = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "trials_per_s", Unit: "trials/s", Better: higher, Bound: 0.25},
	{Name: "campaign_s_p50", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "cpu_s_per_ktrial", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// perLayerMetrics are single-layer figures, all taken from outside the
// program; a traced run reports exactly these, on every workload.
var perLayerMetrics = []metricDecl{
	// internal/mpi
	{Name: "mpi.spawn_us", Unit: "us", Better: lower},
	{Name: "mpi.golden_run_ms", Unit: "ms", Better: lower},
	{Name: "mpi.allreduce_us", Unit: "us", Better: lower},
	{Name: "mpi.alltoall_us", Unit: "us", Better: lower},
	{Name: "mpi.bcast_us", Unit: "us", Better: lower},
	{Name: "mpi.sendrecv_us", Unit: "us", Better: lower},
	{Name: "mpi.deadlock_detect_us_p50", Unit: "us", Better: lower},
	{Name: "mpi.deadlock_detect_us_max", Unit: "us", Better: lower},
	{Name: "mpi.timeout_runs", Unit: "count", Better: lower},
	// internal/fault
	{Name: "fault.hook_overhead_us", Unit: "us", Better: lower},
	{Name: "fault.random_fault_ns", Unit: "ns", Better: lower},
	// internal/profile
	{Name: "profile.profile_ms", Unit: "ms", Better: lower},
	// internal/classify
	{Name: "classify.digest_ns", Unit: "ns", Better: lower},
	{Name: "classify.full_ns", Unit: "ns", Better: lower},
	// internal/core
	{Name: "core.plan_ms", Unit: "ms", Better: lower},
	{Name: "core.trial_fork_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.trial_fork_ms_p95", Unit: "ms", Better: lower},
	{Name: "core.trial_cold_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.trial_replay_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.snapshots_per_campaign", Unit: "count", Better: lower},
	{Name: "core.forked_trials", Unit: "count", Better: higher},
	{Name: "core.replayed_trials", Unit: "count", Better: lower},
	{Name: "core.trials_per_campaign", Unit: "count", Better: lower},
	{Name: "core.points_per_campaign", Unit: "count", Better: lower},
	{Name: "core.point_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.point_ms_p95", Unit: "ms", Better: lower},
	{Name: "core.phase_profiling_ms", Unit: "ms", Better: lower},
	{Name: "core.phase_pruning_ms", Unit: "ms", Better: lower},
	{Name: "core.phase_injecting_ms", Unit: "ms", Better: lower},
	{Name: "core.phase_learning_ms", Unit: "ms", Better: lower},
	{Name: "core.phase_refining_ms", Unit: "ms", Better: lower},
	{Name: "core.supervisor_point_us", Unit: "us", Better: lower},
	{Name: "core.checkpoint_append_us", Unit: "us", Better: lower},
	{Name: "core.checkpoint_load_ms", Unit: "ms", Better: lower},
	{Name: "core.write_json_ms", Unit: "ms", Better: lower},
	{Name: "core.read_json_ms", Unit: "ms", Better: lower},
	{Name: "core.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "core.kb_per_trial", Unit: "KB", Better: lower},
	{Name: "core.workers_speedup", Unit: "x", Better: higher},
	{Name: "core.stream_event_ns", Unit: "ns", Better: lower},
	// internal/ml, internal/stats
	{Name: "ml.train_ms", Unit: "ms", Better: lower},
	{Name: "ml.predict_us", Unit: "us", Better: lower},
	{Name: "stats.settle_observe_ns", Unit: "ns", Better: lower},
	// internal/dist, internal/recfile
	{Name: "dist.lease_us", Unit: "us", Better: lower},
	{Name: "dist.journal_batch_us", Unit: "us", Better: lower},
	{Name: "dist.journal_batch_nowal_us", Unit: "us", Better: lower},
	{Name: "dist.http_rtt_us", Unit: "us", Better: lower},
	{Name: "dist.merge_ms", Unit: "ms", Better: lower},
	{Name: "dist.recover_ms", Unit: "ms", Better: lower},
	{Name: "dist.leases_granted", Unit: "count", Better: lower},
	{Name: "recfile.encode_ns", Unit: "ns", Better: lower},
	{Name: "recfile.parse_ns", Unit: "ns", Better: lower},
	// internal/sense
	{Name: "sense.add_campaign_ms", Unit: "ms", Better: lower},
	{Name: "sense.open_store_ms", Unit: "ms", Better: lower},
	{Name: "sense.train_ms", Unit: "ms", Better: lower},
	{Name: "sense.advise_us", Unit: "us", Better: lower},
	// the tracing itself
	{Name: "trace_overhead_pct", Unit: "%", Better: lower},
}

// exactRepeatMetrics are the counts two runs of one commit on one seed must
// agree on to the unit; -compare refuses a pairing where they differ.
var exactRepeatMetrics = []string{
	"core.snapshots_per_campaign", "core.forked_trials", "core.replayed_trials",
	"core.trials_per_campaign", "core.points_per_campaign", "mpi.timeout_runs",
}
