package main

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
)

// driver names the execution path a workload's campaigns take.
type driver int

const (
	driverSerial     driver = iota // Engine.RunCampaign
	driverSupervised               // Supervisor.Run, Workers:2, checkpoint journal
	driverSharded                  // dist.Service over loopback HTTP, two RunWorker shards
)

// Every concurrency knob is pinned so the numbers do not depend on
// GOMAXPROCS-derived defaults: trials within a point run one at a time, and
// every pool (supervisor workers, shards) has exactly two members — the CI
// box has two cores.
const (
	pinnedParallelism = 1
	pinnedWorkers     = 2
)

// workload is one fixed campaign shape. Campaign i of a run differs from
// the others only in its seed.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	app   string
	ranks int
	scale int // 0 keeps the app's default
	iters int // 0 keeps the app's default
	// options sets everything but Seed, Parallelism and Observer.
	options func(o *core.Options)
	driver  driver

	// pointsPerRank is the recorded size of the unpruned injection space,
	// per rank: every campaign's TotalPoints must equal pointsPerRank×ranks.
	pointsPerRank int
	// measuredPoints is the recorded number of points a campaign injects,
	// or 0 when nothing prunes and it injects them all. On the ML workload it
	// pins the learn loop's path as well: the loop stops after 24 of the 30
	// pruned points and predicts the other 6. Seeds on which it exhausts all
	// 30 are a different, 25 % longer campaign, and are not in the pool.
	measuredPoints int
	// fixedBudget marks workloads without adaptive budgets, on which every
	// measured point must carry exactly TrialsPerPoint trials.
	fixedBudget bool
}

// wantMeasured is the number of measured points every campaign must have,
// or -1 when the size in use does not pin it.
func (w *workload) wantMeasured() int {
	if w.measuredPoints != 0 {
		return w.measuredPoints
	}
	return w.pointsPerRank * w.ranks
}

// smokeRanks and smokeTrials are the -smoke size: one campaign small enough
// for the tier-1 test run.
const (
	smokeRanks  = 8
	smokeTrials = 2
)

var workloads = []*workload{
	{
		name: "lu32-serial",
		why:  "Runtime-overhead-bound: sub-millisecond lu trials, each snapshot reused 100x, one trial at a time; the plain single-threaded baseline.",
		app:  "lu", ranks: 32, scale: 64,
		options: func(o *core.Options) {
			o.Policy = core.PolicyAllParams
			o.ML.Pruning = false
			o.TrialsPerPoint = 100
		},
		driver:         driverSerial,
		pointsPerRank:  15,
		measuredPoints: 14,
		fixedBudget:    true,
	},
	{
		name: "mg32-workers",
		why:  "Compute- and memory-bound: mg trials of about 15 ms that allocate about 46 MB each, on two supervisor workers; an mpi fast-path change should not move it, an arena or GC change should.",
		app:  "mg", ranks: 32, scale: 64,
		options: func(o *core.Options) {
			o.Policy = core.PolicyAllParams
			o.ML.Pruning = false
			o.TrialsPerPoint = 6
		},
		driver:         driverSupervised,
		pointsPerRank:  12,
		measuredPoints: 12,
		fixedBudget:    true,
	},
	{
		name: "minimd32-ml-adaptive",
		why:  "The paper's LAMMPS pipeline end to end: learn loop, forest training, settling rule and refinement; the only workload where ml and stats do work.",
		app:  "minimd", ranks: 32, iters: 2,
		options: func(o *core.Options) {
			o.Policy = core.PolicyDataBuffer
			o.ML.Pruning = true
			o.ML.AccuracyThreshold = 0.65
			o.ML.Levels = 4
			o.Adaptive.Enabled = true
			o.Adaptive.Confidence = 0.95
			o.TrialsPerPoint = 60
		},
		driver:         driverSupervised,
		pointsPerRank:  24,
		measuredPoints: 24,
	},
	{
		name: "lu32-ffd-2shard",
		why:  "Control-plane-bound: the same lu trials, one per point, but 480 records cross lease, journal batch, WAL and merge, and three engines profile and plan per campaign.",
		app:  "lu", ranks: 32, scale: 64,
		options: func(o *core.Options) {
			o.Policy = core.PolicyAllParams
			o.Pruning.Semantic = false
			o.Pruning.Context = false
			o.ML.Pruning = false
			o.TrialsPerPoint = 1
		},
		driver:        driverSharded,
		pointsPerRank: 15,
		fixedBudget:   true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sized returns the workload at the size a run uses: itself, or the -smoke
// reduction (8 ranks, 2 trials per point).
func (w *workload) sized(smoke bool) *workload {
	if !smoke {
		return w
	}
	s := *w
	s.ranks = smokeRanks
	if !w.fixedBudget {
		s.measuredPoints = -1 // with 2 trials per point the learn loop takes whatever path it takes
	}
	full := w.options
	s.options = func(o *core.Options) {
		full(o)
		o.TrialsPerPoint = smokeTrials
	}
	return &s
}

// engine builds a fresh engine for one campaign of the workload: what one
// fastfit or ffd invocation pays (profile, tape, plan) is paid again by
// every campaign. obs may be nil.
func (w *workload) engine(seed int64, obs core.Observer) (*core.Engine, error) {
	return w.engineWith(seed, obs, nil)
}

// engineWith is engine with a final adjustment of the options, for the
// layer probes that need one knob turned (forking off, pruning off).
func (w *workload) engineWith(seed int64, obs core.Observer, adjust func(o *core.Options)) (*core.Engine, error) {
	app, err := all.Lookup(w.app)
	if err != nil {
		return nil, err
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = w.ranks
	if w.scale > 0 {
		cfg.Scale = w.scale
	}
	if w.iters > 0 {
		cfg.Iters = w.iters
	}
	cfg.Seed = seed
	opts := core.DefaultOptions()
	w.options(&opts)
	opts.Seed = seed
	opts.Parallelism = pinnedParallelism
	opts.Observer = obs
	if adjust != nil {
		adjust(&opts)
	}
	return core.New(app, cfg, opts), nil
}
