package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

// Engine drives FastFIT's three phases — profiling, injection and learning
// — for one application configuration.
type Engine struct {
	app  apps.App
	cfg  apps.Config
	opts Options

	// events is the engine's single publication point for campaign
	// observation; New seeds it from Options.Observer (plus the deprecated
	// Logf adapter) and the Supervisor attaches its own adapters.
	events emitter

	prof   *profile.Profile
	golden mpi.RunResult
	digest *classify.Digest

	// Network-fault-domain configuration, resolved once (netSetup): the
	// parsed topology shared by every injected run, or nil when the
	// campaign has no network dimension.
	netOnce sync.Once
	topo    mpi.Topology
	netErr  error

	// Fork-at-injection-site state (fork.go): the workload's snapshot
	// store, resolved once, plus the campaign's fork accounting.
	forkOnce sync.Once
	forkSt   *forkState
	stats    snapshotStats
}

// App returns the engine's workload.
func (e *Engine) App() apps.App { return e.app }

// Config returns the engine's application configuration.
func (e *Engine) Config() apps.Config { return e.cfg }

// Options returns the engine's (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// emit publishes one event to the attached observers.
func (e *Engine) emit(ev Event) { e.events.emit(ev) }

// logf emits a free-text Note event; LogfObserver renders it verbatim for
// the deprecated Options.Logf surface. Formatting is skipped when nothing
// observes the campaign.
func (e *Engine) logf(format string, args ...any) {
	if e.events.active() {
		e.events.emit(Note{Text: fmt.Sprintf(format, args...)})
	}
}

// emitCampaignStarted opens a campaign's event stream, followed by one
// FaultDomainEvent per element of the standing network fault environment so
// stream consumers know what every injected run executes under before the
// first point completes.
func (e *Engine) emitCampaignStarted() {
	e.stats.reset()
	e.emit(CampaignStarted{
		App:            e.app.Name(),
		Ranks:          e.cfg.Ranks,
		TrialsPerPoint: e.opts.TrialsPerPoint,
		MLPruning:      e.opts.ML.Pruning,
		Algorithm:      e.cfg.Algorithm,
	})
	if e.netSetup() == nil && e.topo != nil {
		e.emit(FaultDomainEvent{Kind: "topology", Spec: e.topo.Name()})
		for _, nf := range e.opts.Network.Plan {
			e.emit(FaultDomainEvent{
				Kind: nf.Kind.String(), Spec: nf.String(),
				Rank: nf.Rank, Peer: nf.Peer, Count: nf.Count,
			})
		}
	}
}

// netSetup resolves the network fault domain once: it parses the topology
// and validates the structured plan. It returns nil with e.topo == nil when
// the campaign has no network dimension at all (no topology, no plan, and a
// non-network policy) — runs then keep the paper's reliable flat fabric at
// zero cost.
func (e *Engine) netSetup() error {
	e.netOnce.Do(func() {
		if e.opts.Topology == "" && len(e.opts.Network.Plan) == 0 && e.opts.Policy != PolicyNetwork {
			return
		}
		topo, err := mpi.ParseTopology(e.opts.Topology, e.cfg.Ranks)
		if err != nil {
			e.netErr = err
			return
		}
		if err := fault.ValidateNetPlan(e.opts.Network.Plan, e.cfg.Ranks); err != nil {
			e.netErr = err
			return
		}
		e.topo = topo
	})
	return e.netErr
}

// trialNetwork builds one injected run's private interconnect with the
// structured plan pre-applied, returning the at-start crashed ranks. Each
// run gets its own Network because injectors and plans mutate link state.
// Nil when the campaign has no network dimension (or its configuration is
// invalid — Profile surfaces that error before any trial runs).
func (e *Engine) trialNetwork() (*mpi.Network, []int) {
	if e.netSetup() != nil || e.topo == nil {
		return nil, nil
	}
	net := mpi.NewNetwork(e.topo)
	crashed := fault.ApplyNetPlan(net, e.opts.Network.Plan)
	return net, crashed
}

// Profile runs the application once fault-free, collecting the
// communication, call-graph and call-stack profiles and the golden results
// used for WRONG_ANS detection. It is idempotent: repeated calls reuse the
// first profile (the paper notes profiling is a one-time cost reusable
// across campaigns).
func (e *Engine) Profile() (*profile.Profile, error) {
	if e.prof != nil {
		return e.prof, nil
	}
	if err := e.netSetup(); err != nil {
		return nil, fmt.Errorf("network fault domain of %s: %w", e.app.Name(), err)
	}
	col := profile.NewCollector(e.cfg.Ranks)
	res := e.run(col)
	if err := res.FirstError(); err != nil {
		return nil, fmt.Errorf("profiling run of %s failed: %w", e.app.Name(), err)
	}
	if res.Deadlock || res.TimedOut {
		return nil, fmt.Errorf("profiling run of %s hung (deadlock=%v timeout=%v)", e.app.Name(), res.Deadlock, res.TimedOut)
	}
	e.prof = col.Finish()
	e.golden = res
	if !e.opts.DisablePooling {
		e.digest = classify.NewDigest(res, classify.DefaultTolerance)
	}
	return e.prof, nil
}

// Golden returns the fault-free reference run (Profile must have run).
func (e *Engine) Golden() mpi.RunResult { return e.golden }

// Points enumerates the full fault-injection space from the profile.
func (e *Engine) Points() ([]Point, error) {
	p, err := e.Profile()
	if err != nil {
		return nil, err
	}
	return enumeratePoints(p), nil
}

// run executes the application once with the given hook.
func (e *Engine) run(hook mpi.Hook) mpi.RunResult {
	return e.exec(mpi.RunOptions{Hook: hook})
}

// exec runs the application once under ro, after filling in what every
// simulated run of this engine shares: the world size, the application
// seed, the per-run timeout and the pooling switch.
func (e *Engine) exec(ro mpi.RunOptions) mpi.RunResult {
	ro.NumRanks = e.cfg.Ranks
	ro.Seed = e.cfg.Seed
	ro.Timeout = e.opts.RunTimeout
	ro.DisablePooling = e.opts.DisablePooling
	return mpi.Run(ro, func(r *mpi.Rank) error { return e.app.Main(r, e.cfg) })
}

// RunOnce executes the application with the given faults injected and
// classifies the outcome against the golden run.
func (e *Engine) RunOnce(faults ...fault.Fault) (classify.Outcome, mpi.RunResult) {
	return e.RunOnceCtx(context.Background(), faults...)
}

// RunOnceCtx is RunOnce with cancellation: when ctx is done the simulated
// world is torn down mid-run. The classification of a cancelled run is
// meaningless and must be discarded by the caller (check res.Cancelled).
//
// Single-fault trials fork from the injection-prefix snapshot when one is
// available (fork.go) and replay from t=0 otherwise; the two paths are
// classification-identical, so which one a trial takes is invisible outside
// the SnapshotStats accounting.
func (e *Engine) RunOnceCtx(ctx context.Context, faults ...fault.Fault) (classify.Outcome, mpi.RunResult) {
	inj := fault.NewInjector(nil, faults...)
	if len(faults) == 1 {
		if fk := e.trialFork(faults[0]); fk != nil {
			e.stats.forked.Add(1)
			res := e.exec(mpi.RunOptions{Hook: inj, Context: ctx, Fork: fk})
			return e.classifyRun(res), res
		}
	}
	e.stats.replayed.Add(1)
	net, crashed := e.trialNetwork()
	if net != nil {
		inj.AttachNetwork(net)
	}
	res := e.exec(mpi.RunOptions{Hook: inj, Context: ctx, Network: net, CrashedRanks: crashed})
	return e.classifyRun(res), res
}

// classifyRun classifies one run against the golden reference, through the
// precomputed digest when Profile built one (the campaign hot path) and
// the full comparison otherwise. The two are outcome-identical; the
// differential tests pin it.
func (e *Engine) classifyRun(res mpi.RunResult) classify.Outcome {
	if e.digest != nil {
		return e.digest.Classify(res)
	}
	return classify.Classify(e.golden, res)
}

// trialSeed derives a deterministic seed for one trial of one point.
func (e *Engine) trialSeed(pointIdx, trial int) int64 {
	z := uint64(e.opts.Seed)*0x9E3779B97F4A7C15 + uint64(pointIdx)*0xBF58476D1CE4E5B9 + uint64(trial)*0x94D049BB133111EB + 1
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return int64(z >> 1)
}

// InjectPoint performs n random fault-injection tests at a point, choosing
// the corrupted parameter and bit uniformly per test (the paper's basic
// methodology, §II).
func (e *Engine) InjectPoint(p Point, pointIdx, n int) PointResult {
	pr, _ := e.injectPointFiltered(context.Background(), p, pointIdx, n, nil)
	return pr
}

// InjectPointCtx is InjectPoint with cancellation: when ctx is done, no new
// trials start, in-flight simulated runs are torn down and ctx.Err() is
// returned. A partially-injected point must not be recorded — its trial
// slice is incomplete and would skew every downstream statistic.
func (e *Engine) InjectPointCtx(ctx context.Context, p Point, pointIdx, n int) (PointResult, error) {
	return e.injectPointFiltered(ctx, p, pointIdx, n, nil)
}

// InjectPointTarget performs n tests at a point, all on one parameter
// (used by the per-parameter studies, paper Fig. 9).
func (e *Engine) InjectPointTarget(p Point, pointIdx, n int, target fault.Target) PointResult {
	pr, _ := e.injectPointFiltered(context.Background(), p, pointIdx, n, &target)
	return pr
}

func (e *Engine) injectPointFiltered(ctx context.Context, p Point, pointIdx, n int, target *fault.Target) (PointResult, error) {
	trials, err := e.runTrialWave(ctx, p, pointIdx, 0, n, target)
	if err != nil {
		return PointResult{Point: p}, err
	}
	pr := PointResult{Point: p, Trials: trials}
	for _, t := range trials {
		pr.Counts.Add(t.Outcome)
	}
	return pr, nil
}

// trialFault picks the fault one trial injects, given the trial's rng.
func (e *Engine) trialFault(rng *rand.Rand, p Point, target *fault.Target) fault.Fault {
	switch {
	case target != nil:
		return fault.RandomFaultOn(rng, p.Rank, p.Site, p.Invocation, *target)
	case e.opts.Policy == PolicyAllParams:
		return fault.RandomFault(rng, p.Rank, p.Site, p.Invocation, p.Type)
	case e.opts.Policy == PolicyNetwork:
		return fault.RandomNetFault(rng, p.Rank, p.Site, p.Invocation, e.cfg.Ranks)
	default:
		return fault.DataBufferFault(rng, p.Rank, p.Site, p.Invocation, p.Type)
	}
}

// runTrialWave executes trials [from, from+n) of a point concurrently
// (bounded by Options.Parallelism) and returns them in trial order. Each
// trial's seed depends only on (pointIdx, trial index), so any partition
// of the trial sequence into waves yields identical results.
func (e *Engine) runTrialWave(ctx context.Context, p Point, pointIdx, from, n int, target *fault.Target) ([]TrialResult, error) {
	trials := make([]TrialResult, n)
	par := e.opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)/4 + 1
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := newRand(e.trialSeed(pointIdx, from+t))
			f := e.trialFault(rng, p, target)
			outcome, _ := e.RunOnceCtx(ctx, f)
			trials[t] = TrialResult{Target: f.Target, Bit: f.Bit, Outcome: outcome}
		}(t)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return trials, nil
}
