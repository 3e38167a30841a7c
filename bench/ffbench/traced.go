package main

import (
	"context"
	"fmt"
	"time"
)

// traced is the traced run. It runs the closed loop twice, a third of the
// window each — untraced, then with the timestamping observers attached, so
// the tracing overhead is measured inside one process on the same seeds —
// and then the layer probes. Its per-layer metrics never feed the
// end-to-end ones: those always come from an untraced run.
func (r *runner) traced(cfg runConfig, rep *report, refs []sample, d time.Duration) error {
	plain, err := r.loop(refs, d/3, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := r.loop(refs, d/3, tr)
	if err != nil {
		return err
	}
	rep.account(&plain)
	rep.account(&traced)
	spans := tr.finish()

	first := refs[0]
	ctx, cancel := context.WithTimeout(context.Background(), campaignDeadline)
	defer cancel()
	p := &prober{
		w: r.w, tmp: r.tmp, refs: refs, smoke: cfg.smoke, ctx: ctx,
		eng: first.eng, ref: first.result, seed: first.seed, canned: first.result.Measured[0],
		m: map[string]float64{}, samples: rep.Detail.Samples,
	}
	if err := p.run(); err != nil {
		return err
	}
	m := p.m

	// Counts that repeat exactly: the first campaign of the traced loop runs
	// on the first seed, like the reference they are listed beside.
	snap := traced.samples[0].snap
	m["core.snapshots_per_campaign"] = float64(snap.Snapshots)
	m["core.forked_trials"] = float64(snap.Forked)
	m["core.replayed_trials"] = float64(snap.Replayed)
	m["core.trials_per_campaign"] = float64(first.trials)
	m["core.points_per_campaign"] = float64(first.points)
	if r.w.driver == driverSharded {
		p.notef("core.forked_trials and core.replayed_trials read 0: the sharded driver's trials run on the shards' engines, whose fork accounting no public call or event exposes")
	}

	pointName := "point"
	if r.w.driver == driverSharded {
		pointName = "shard:point" // a coordinator's feed has completions only; the shards' feeds have both ends
	}
	points := durations(spans, pointName)
	m["core.point_ms_p50"] = median(points)
	m["core.point_ms_p95"] = percentile(points, 0.95)
	p.samples["core.point_ms_p50"], p.samples["core.point_ms_p95"] = len(points), len(points)

	// A phase's figure is the time between its PhaseChanged event and the
	// next, summed per campaign; profiling adds the harness's own Profile
	// call, which the driver's profiling phase then reuses.
	phase := func(names ...string) float64 { return median(perCampaign(spans, names...)) }
	m["core.phase_profiling_ms"] = phase("profile", "phase:profile")
	m["core.phase_pruning_ms"] = phase("phase:prune")
	m["core.phase_injecting_ms"] = phase("phase:inject")
	m["core.phase_learning_ms"] = phase("phase:learn", "phase:predict")
	m["core.phase_refining_ms"] = phase("phase:refine")

	if n := traced.trials(); n > 0 {
		m["core.allocs_per_trial"] = float64(traced.allocs) / float64(n)
		m["core.kb_per_trial"] = float64(traced.bytes) / 1024 / float64(n)
	}
	var leases []float64
	for _, s := range traced.samples {
		leases = append(leases, float64(s.leases))
	}
	m["dist.leases_granted"] = median(leases)

	base, with := plain.trialsPerS(), traced.trialsPerS()
	if base > 0 {
		m["trace_overhead_pct"] = (base - with) / base * 100
	}
	p.notef("trace_overhead_pct = (%.1f untraced - %.1f traced) / %.1f trials/s, over %d and %d campaigns",
		base, with, base, len(plain.samples), len(traced.samples))

	// Reconciliation of the per-trial ledger. RunOnce — what
	// core.trial_fork_ms_p50 times — contains the world spawn, the hook and
	// the classification, so those three are parts of it, not terms beside
	// it; what the campaign adds on top is everything the driver does per
	// trial (fault draw, scheduling, events, journal) plus the tail the
	// median hides. With two workers or shards two trials are in flight, so
	// a trial's own lane has twice the wall time per trial.
	if base > 0 {
		lanes := 1
		if r.w.driver != driverSerial {
			lanes = pinnedWorkers
		}
		lane := 1000 / base * float64(lanes)
		fork := m["core.trial_fork_ms_p50"]
		spawn, hook, class := m["mpi.spawn_us"]/1000, m["fault.hook_overhead_us"]/1000, m["classify.digest_ns"]/1e6
		p.notef("reconciliation: 1/trials_per_s x %d trial(s) in flight = %.3f ms per trial in its lane; core.trial_fork_ms_p50 = %.3f ms, of which spawn %.3f + hook %.3f + classify %.4f = %.3f ms; driver, tail and waiting = %.3f ms",
			lanes, lane, fork, spawn, hook, class, spawn+hook+class, lane-fork)
	}
	p.notef("file I/O figures (core.checkpoint_*, dist.journal_batch_us, dist.recover_ms, sense.*_store_*) were measured on %s and say nothing about another disk", rep.Host.ScratchFS)

	rep.Detail.Notes = append(rep.Detail.Notes, p.notes...)
	rep.Result.Metrics = map[string]metric{}
	for _, decl := range perLayerMetrics {
		v, ok := m[decl.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %q is declared but not measured", decl.Name)
		}
		rep.Result.Metrics[decl.Name] = metric{Value: v, Unit: decl.Unit}
	}
	if cfg.traceOut != "" {
		return writeTraceFile(cfg.traceOut, traceFile{
			Workload: rep.Workload, Seed: rep.Seed, Host: rep.Host,
			Summary: summarize(spans), Counts: tr.counts, Notes: rep.Detail.Notes,
		}, spans)
	}
	return nil
}
