// Package core implements FastFIT itself: the profiling → injection →
// learning pipeline of the paper's Fig. 5, the three pruning techniques
// (semantic-driven, application-context-driven and machine-learning-driven
// fault injection) and the campaign orchestration that produces the
// sensitivity statistics of the evaluation section.
package core

import (
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/fault"
)

// Exec groups the options governing how trials execute: budgets, seeds,
// timeouts, concurrency and the fault policy.
type Exec struct {
	// TrialsPerPoint is the number of random fault-injection tests
	// reported at each fault injection point (the paper uses at least 100).
	// Every test draws its own (parameter, bit); tests of one point that
	// draw the same effective fault — the same bit once wrapped to the
	// parameter's width — are one simulated execution, run at the first
	// of them, whose outcome the repeats reuse (DESIGN.md "Effective
	// faults"). A Barrier point has 32 distinct faults however many
	// tests it is given.
	TrialsPerPoint int
	// Seed drives every random decision of the campaign: fault targets,
	// bit positions, batch shuffling and forest training.
	Seed int64
	// RunTimeout bounds each injected run's wall-clock time (INF_LOOP
	// backstop). Zero means 2s; a run whose ranks all block ends at the
	// last one's park, well before this.
	RunTimeout time.Duration
	// Parallelism is the number of injected runs executed concurrently.
	// Zero picks a conservative default based on GOMAXPROCS.
	Parallelism int
	// Policy selects which parameter each fault-injection test corrupts.
	Policy FaultPolicy
}

// Pruning groups the two static pruning techniques. The third (ML-driven
// pruning) carries its own knobs and lives in ML.
type Pruning struct {
	// Semantic enables the rank-equivalence reduction (§III-A).
	Semantic bool
	// Context enables the call-stack invocation reduction (§III-B).
	Context bool
}

// ML groups the machine-learning-driven pruning options (§III-C).
type ML struct {
	// Pruning enables prediction of untested points.
	Pruning bool
	// AccuracyThreshold is the prediction-accuracy target that stops the
	// injection/learning feedback loop (the paper selects 0.65).
	AccuracyThreshold float64
	// Batch is the number of points injected per loop iteration before
	// the model is re-verified. Zero means 8.
	Batch int
	// MinTrain is the minimum number of measured points before the first
	// verification. Zero means 2*Batch.
	MinTrain int
	// Levels is the number of error-rate bands used as ML labels (the
	// paper uses four: low, medium-low, medium-high, high).
	Levels int
}

// Adaptive groups the sequential early-stopping options.
type Adaptive struct {
	// Enabled turns on sequential early stopping: a Wilson-interval
	// settling rule (internal/stats) watches each point's outcome stream
	// and stops injecting once the dominant outcome is statistically
	// separated from the runner-up; the saved trials fund a refinement
	// pass over the points whose outcome intervals are still widest. The
	// total budget never exceeds TrialsPerPoint × points, and with a fixed
	// Seed the campaign result is identical at every worker count and
	// across interrupt/resume.
	Enabled bool
	// Confidence is the settling rule's two-sided interval confidence in
	// (0,1). Zero (or an out-of-range value) means 0.95.
	Confidence float64
}

// Network groups the standing network fault environment.
type Network struct {
	// Topology selects the simulated interconnect every injected run routes
	// its messages through: "flat", "ring" or "torus[:XxY]" (mpi.ParseTopology).
	// Empty keeps the paper's perfectly reliable flat network at zero cost —
	// unless Plan or PolicyNetwork forces a network, in which case empty
	// means "flat".
	Topology string
	// Plan is the structured network fault plan — permanent link
	// failures, egress drop bursts and node crashes (fault.ParseNetPlan) —
	// applied at the start of every *injected* run. The golden and profiling
	// runs stay fault-free: the plan is part of the fault model under study,
	// not of the reference behaviour, so a campaign measures how the
	// application's outcome distribution shifts under a standing fault
	// environment.
	Plan []fault.NetFault
}

// Fork groups the fork-at-injection-site execution options. Forking is on
// by default: the engine records the golden run's communication once and
// serves each trial's pre-injection prefix from the tape (see
// internal/mpi trace.go/fork.go), falling back to full from-t=0 replay
// whenever a trial is not forkable (multi-fault plans, network faults, or
// an application using unreplayable features). Forked and replayed trials
// are byte-identical; the execution-mode matrix pins it.
type Fork struct {
	// Disable turns forking off, executing every trial from t=0. The
	// campaign outcome is identical either way; this knob exists for
	// ablation benchmarks.
	Disable bool
}

// Options configures a FastFIT campaign.
//
// The options are grouped into embedded sub-structs by concern: Exec
// (trial execution), Pruning (static pruning), ML (learning loop),
// Adaptive (early stopping), Network (standing fault environment) and
// Fork (fork-at-injection-site execution). Unambiguous fields read
// through Go's embedded-field promotion (opts.Seed, opts.TrialsPerPoint,
// ...).
type Options struct {
	Exec
	Pruning
	ML
	Adaptive
	Network
	Fork

	// Observer, when set, receives the campaign's typed event stream:
	// CampaignStarted, phase changes, per-point results, ML batch
	// verifications, SnapshotStats and CampaignFinished. This is the single
	// observation surface of every campaign, however it is driven; attach
	// a StreamStats for running statistics or a JSONLObserver for a
	// machine-readable journal, and combine consumers with MultiObserver.
	Observer Observer
}

// FaultPolicy selects the injected parameter per test.
type FaultPolicy int

const (
	// PolicyDataBuffer flips a bit in the collective's data buffer when it
	// has one, falling back to a random input parameter otherwise — the
	// paper's §V-C methodology and the default.
	PolicyDataBuffer FaultPolicy = iota
	// PolicyAllParams flips a bit in a uniformly random input parameter
	// (the paper's §II basic methodology, used for the per-parameter
	// studies).
	PolicyAllParams
	// PolicyNetwork injects a random network fault at the addressed call
	// instead of corrupting data: a permanent egress link failure, a
	// transient drop burst on one of the rank's links, or a node crash
	// (the topology-aware fault domain). Requires a Topology (empty means
	// flat) so every link fault lands on a real link.
	PolicyNetwork
)

// DefaultOptions returns the paper's configuration: all three pruning
// techniques on, 100 trials per point, 65% accuracy threshold, four
// error-rate levels.
func DefaultOptions() Options {
	return Options{
		Exec:    Exec{TrialsPerPoint: 100, Seed: 1},
		Pruning: Pruning{Semantic: true, Context: true},
		ML:      ML{Pruning: true, AccuracyThreshold: 0.65, Levels: 4},
	}
}

func (o Options) withDefaults() Options {
	if o.TrialsPerPoint <= 0 {
		o.Exec.TrialsPerPoint = 100
	}
	if o.RunTimeout <= 0 {
		o.Exec.RunTimeout = 2 * time.Second
	}
	if o.ML.Batch <= 0 {
		o.ML.Batch = 8
	}
	if o.ML.MinTrain <= 0 {
		o.ML.MinTrain = 2 * o.ML.Batch
	}
	if o.Levels <= 0 {
		o.ML.Levels = 4
	}
	if o.AccuracyThreshold <= 0 {
		o.ML.AccuracyThreshold = 0.65
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Adaptive.Confidence = 0.95
	}
	return o
}

// New builds a FastFIT engine for one application configuration.
func New(app apps.App, cfg apps.Config, opts Options) *Engine {
	e := &Engine{app: app, cfg: cfg, opts: opts.withDefaults()}
	e.events.attach(e.opts.Observer)
	return e
}
