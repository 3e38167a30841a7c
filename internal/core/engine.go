package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
	"github.com/fastfit/fastfit/internal/stats"
)

// Engine drives FastFIT's three phases — profiling, injection and learning
// — for one application configuration.
type Engine struct {
	app  apps.App
	cfg  apps.Config
	opts Options

	// events is the engine's single publication point for campaign
	// observation; New seeds it from Options.Observer.
	events emitter

	// gold is the workload's golden run (fork.go), resolved by the first
	// Profile and shared with every engine of the same fingerprint.
	gold atomic.Pointer[goldenRun]

	// plan is the campaign's plan once one succeeded (planCampaign); its
	// CampaignResult holds only the pruning accounting.
	plan atomic.Pointer[campaignPlan]

	// reference turns every shortcut off: no arena (DisablePooling, so no
	// rendezvous either), fork or memo, and the full golden comparison on its
	// own uncached golden run instead of the digest. The execution-mode
	// matrix holds every other engine to it.
	reference bool

	// Network-fault-domain configuration, resolved once (netSetup): the
	// parsed topology shared by every injected run, or nil when the
	// campaign has no network dimension.
	netOnce sync.Once
	topo    mpi.Topology
	netErr  error

	// noteOnce guards the one Note saying the golden run's tape was
	// refused (trialFork); stats is the campaign's fork accounting.
	noteOnce sync.Once
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

// logf emits a free-text Note event (LogfObserver renders it verbatim).
// Formatting is skipped when nothing observes the campaign.
func (e *Engine) logf(format string, args ...any) {
	if e.events.active() {
		e.events.emit(Note{Text: fmt.Sprintf(format, args...)})
	}
}

// OpeningEvents returns the events that open a campaign's stream: its
// CampaignStarted, followed by one FaultDomainEvent per element of the
// standing network fault environment so stream consumers know what every
// injected run executes under before the first point completes. The
// engine's own stream and a distributed coordinator's feed both open with
// them.
func (e *Engine) OpeningEvents() []Event {
	evs := []Event{CampaignStarted{
		App:            e.app.Name(),
		Ranks:          e.cfg.Ranks,
		TrialsPerPoint: e.opts.TrialsPerPoint,
		MLPruning:      e.opts.ML.Pruning,
	}}
	if e.netSetup() == nil && e.topo != nil {
		evs = append(evs, FaultDomainEvent{Kind: "topology", Spec: e.topo.Name()})
		for _, nf := range e.opts.Network.Plan {
			evs = append(evs, FaultDomainEvent{
				Kind: nf.Kind.String(), Spec: nf.String(),
				Rank: nf.Rank, Peer: nf.Peer, Count: nf.Count,
			})
		}
	}
	return evs
}

// emitCampaignStarted resets the run's snapshot counters and emits the
// campaign's OpeningEvents.
func (e *Engine) emitCampaignStarted() {
	e.stats.reset()
	for _, ev := range e.OpeningEvents() {
		e.emit(ev)
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
		if err := fault.ValidateNetPlan(e.opts.Network.Plan, topo); err != nil {
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

// Profile returns the communication, call-graph and call-stack profiles of
// the workload's golden run, the fault-free run that also yields the golden
// results for WRONG_ANS detection and the tape trials fork from. Every
// engine of a workload shares that one run (the paper notes profiling is a
// one-time cost reusable across campaigns).
func (e *Engine) Profile() (*profile.Profile, error) {
	g, err := e.loadGolden()
	if err != nil {
		return nil, err
	}
	return g.prof, nil
}

// Golden returns the fault-free reference run (zero before Profile).
func (e *Engine) Golden() (res mpi.RunResult) {
	if g := e.gold.Load(); g != nil {
		res = g.res
	}
	return res
}

// Points enumerates the full fault-injection space from the profile.
func (e *Engine) Points() ([]Point, error) {
	p, err := e.Profile()
	if err != nil {
		return nil, err
	}
	return enumeratePoints(p), nil
}

// exec runs the application once under ro, after filling in what every
// simulated run of this engine shares: the world size, the application
// seed, the per-run timeout and the pooling switch.
func (e *Engine) exec(ro mpi.RunOptions) mpi.RunResult {
	ro.NumRanks = e.cfg.Ranks
	ro.Seed = e.cfg.Seed
	ro.Timeout = e.opts.RunTimeout
	ro.DisablePooling = e.reference
	return mpi.Run(ro, func(r *mpi.Rank) error { return e.app.Main(r, e.cfg) })
}

// RunOnce executes the application with the given faults injected and
// classifies the outcome against the golden run, profiling the engine first
// if nothing has; it panics with Profile's error when that fails.
func (e *Engine) RunOnce(faults ...fault.Fault) (classify.Outcome, mpi.RunResult) {
	return e.RunOnceCtx(context.Background(), faults...)
}

// RunOnceCtx is RunOnce with cancellation: when ctx is done the simulated
// world is torn down mid-run. The classification of a cancelled run is
// meaningless and must be discarded by the caller (check res.Cancelled), as
// is that of a forked run whose prefix left its tape (res.Divergence), a
// fault of the harness that a campaign reports as one.
//
// Single-fault trials fork from the injection-prefix snapshot when one is
// available (fork.go) and replay from t=0 otherwise; the two paths are
// classification-identical, so which one a trial takes is invisible outside
// the SnapshotStats accounting. RunOnce always executes the faults it is
// given: only a point's trial sequence (runTrialWave) reuses outcomes. A
// forked trial whose fault is masked — every rank leaves the faulted
// collective holding the golden run's result (mpi/fork.go, part 3), or
// reaches a later checkpoint in the golden run's state (mpi/checkpoint.go,
// part 6) — is ended there and returns the golden run's ranks with
// res.Reconverged set and res.Provenance naming the cut; it classifies
// SUCCESS through the ordinary path.
func (e *Engine) RunOnceCtx(ctx context.Context, faults ...fault.Fault) (classify.Outcome, mpi.RunResult) {
	outcome, res, how := e.execute(ctx, faults...)
	e.stats.count(how)
	return outcome, res
}

// execute runs the application with the faults injected, classifies the
// run and reports which way it ran; the caller does the accounting.
func (e *Engine) execute(ctx context.Context, faults ...fault.Fault) (classify.Outcome, mpi.RunResult, trialHow) {
	g, err := e.loadGolden()
	if err != nil {
		panic(err)
	}
	inj := fault.NewInjector(nil, faults...)
	if len(faults) == 1 {
		if fk := e.trialFork(g, faults[0]); fk != nil {
			res := e.exec(mpi.RunOptions{Hook: inj.Hook(), Context: ctx, Fork: fk})
			how := howForked
			switch res.Provenance {
			case mpi.Reconverged:
				how = howReconverged
			case mpi.ReconvergedAtCheckpoint:
				how = howAtCheckpoint
			}
			return e.classifyRun(g, res), res, how
		}
	}
	net, crashed := e.trialNetwork()
	if net != nil {
		inj.AttachNetwork(net)
	}
	res := e.exec(mpi.RunOptions{Hook: inj.Hook(), Context: ctx, Network: net, CrashedRanks: crashed})
	return e.classifyRun(g, res), res, howReplayed
}

// classifyRun classifies one run against the golden reference, through the
// precomputed digest (the campaign hot path) and, on the reference engine,
// the full comparison. The two are outcome-identical; the execution-mode
// matrix pins it.
func (e *Engine) classifyRun(g *goldenRun, res mpi.RunResult) classify.Outcome {
	if e.reference {
		return classify.Classify(g.res, res)
	}
	return g.digest.Classify(res)
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
	trials, _ := e.runTrials(context.Background(), e.pointSeq(p, pointIdx, nil), nil, n, false)
	return newPointResult(p, trials)
}

// InjectPointTarget performs n tests at a point, all on one parameter
// (used by the per-parameter studies, paper Fig. 9).
func (e *Engine) InjectPointTarget(p Point, pointIdx, n int, target fault.Target) PointResult {
	trials, _ := e.runTrials(context.Background(), e.pointSeq(p, pointIdx, &target), nil, n, false)
	return newPointResult(p, trials)
}

// newPointResult assembles a point's record from its trials in order.
func newPointResult(p Point, trials []TrialResult) PointResult {
	pr := PointResult{Point: p, Trials: trials}
	for _, t := range trials {
		pr.Counts.Add(t.Outcome)
	}
	return pr
}

// trialSeq is one injection point's trial sequence: trial t injects the
// fault draw picks from a generator seeded by (seed, t), and, when keyed,
// trials that agree on their effective fault at widths w share one run.
type trialSeq struct {
	seed  int
	draw  func(*rand.Rand) fault.Fault
	w     fault.Widths
	keyed bool
}

// pointSeq returns the trial sequence of a collective point under the
// engine's policy, or restricted to one parameter when target is set.
func (e *Engine) pointSeq(p Point, pointIdx int, target *fault.Target) trialSeq {
	w, keyed := e.pointWidths(p)
	return trialSeq{seed: pointIdx, w: w, keyed: keyed && !e.reference, draw: func(rng *rand.Rand) fault.Fault {
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
	}}
}

// runTrials extends a point's trial sequence from prior by n trials and
// returns the whole sequence, booking how the new trials came by their
// outcomes. Without settle the n trials are one wave. With settle (adaptive
// budgets) they run in waves, each outcome fed in trial order to the
// settling test, and stop at its first firing; trials a wave produced past
// that index are discarded — side-effect-free in the simulated world, and
// absent from the accounting — so the recorded prefix is independent of the
// wave size and of Parallelism.
func (e *Engine) runTrials(ctx context.Context, seq trialSeq, prior []TrialResult, n int, settle bool) ([]TrialResult, error) {
	budget := len(prior) + n
	out, ran := append(make([]TrialResult, 0, budget), prior...), make([]trialHow, 0, n)
	var st *stats.SettleTest
	if settle {
		st = e.replaySettle(prior)
	}
waves:
	for len(out) < budget {
		wave := budget - len(out)
		if st != nil {
			if st.Settled() {
				break
			}
			// The rule cannot fire before EarliestFire observations, so
			// the opening wave safely runs up to that point in one batch.
			wave = min(wave, max(e.parallelism(), st.EarliestFire()-st.N()))
		}
		trs, how, err := e.runTrialWave(ctx, seq, out, wave)
		if err != nil {
			return nil, err
		}
		for t, tr := range trs {
			out, ran = append(out, tr), append(ran, how[t])
			if st != nil && st.Observe(int(tr.Outcome)) {
				break waves
			}
		}
	}
	e.stats.count(ran...)
	return out, nil
}

// parallelism is the number of a point's trials in flight at once.
func (e *Engine) parallelism() int {
	if e.opts.Parallelism > 0 {
		return e.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)/4 + 1
}

// effectiveFault is what a trial actually does at its point: the corrupted
// parameter and the bit the injector wraps the drawn index to. Trials of one
// point that agree on it run the same simulated execution.
type effectiveFault struct {
	target fault.Target
	bit    int
}

// pointWidths returns the parameter widths a fault at p wraps to, or false
// when the point's trials cannot be keyed by effective fault: the profile
// has no such invocation, or the campaign has a network dimension, under
// which an injected run does not reach the point along the golden run's
// prefix and may meet other arguments there.
func (e *Engine) pointWidths(p Point) (fault.Widths, bool) {
	g := e.gold.Load()
	if g == nil || e.netSetup() != nil || e.topo != nil {
		return fault.Widths{}, false
	}
	return g.prof.Widths(p.Rank, p.Site, p.Invocation)
}

// FaultSpace returns the number of distinct effective faults the engine's
// policy can draw at p — the sum of the widths of the parameters it targets
// there — or false when the point's trials are not keyed by effective fault
// (network policy or dimension, point not in the profile). However large
// the point's trial budget, at most that many of its trials execute; the
// others reuse an outcome.
func (e *Engine) FaultSpace(p Point) (int, bool) {
	w, ok := e.pointWidths(p)
	if !ok || e.opts.Policy == PolicyNetwork {
		return 0, false
	}
	if e.opts.Policy == PolicyDataBuffer {
		for _, t := range fault.TargetsFor(p.Type) {
			if t == fault.TargetSendBuf {
				return w.Send, true
			}
		}
	}
	return w.Space(p.Type), true
}

// runTrialWave produces trials [len(prior), len(prior)+n) of a point's
// sequence, in trial order, given the trials the point has already
// recorded. It is the one loop every injection runs its trials through. It
// draws the wave's faults first, executes — concurrently, bounded by
// Options.Parallelism — only those whose effective fault occurs neither in
// prior nor earlier in the wave, and gives every other trial the outcome of
// its effective fault's first occurrence. A trial's seed depends only on
// (pointIdx, trial index) and an outcome only on the effective fault, so
// any partition of the trial sequence into waves yields identical results,
// and which trials execute is a function of the sequence alone. how[t] says
// which of the three ways trial t came by its outcome.
func (e *Engine) runTrialWave(ctx context.Context, seq trialSeq, prior []TrialResult, n int) (trials []TrialResult, how []trialHow, err error) {
	from := len(prior)
	trials, how = make([]TrialResult, n), make([]trialHow, n)
	faults := make([]fault.Fault, n)

	// src[t] is the index, in the point's whole trial sequence, of the
	// trial whose run decides trial t: from+t itself when t executes.
	src := make([]int, n)
	// first maps each effective fault to its first occurrence in the
	// sequence. Network-target trials are never keyed: their Bit addresses
	// a link and a burst length, not a parameter bit.
	first := map[effectiveFault]int{}
	occurs := func(i int, tr TrialResult) int {
		if !seq.keyed || tr.Target.IsNet() {
			return i
		}
		k := effectiveFault{tr.Target, seq.w.EffectiveBit(tr.Target, tr.Bit)}
		if j, seen := first[k]; seen {
			return j
		}
		first[k] = i
		return i
	}
	for i, tr := range prior {
		occurs(i, tr)
	}
	for t := range faults {
		f := seq.draw(newRand(e.trialSeed(seq.seed, from+t)))
		faults[t], trials[t] = f, TrialResult{Target: f.Target, Bit: f.Bit}
		if src[t] = occurs(from+t, trials[t]); src[t] != from+t {
			how[t] = howMemoised
		}
	}

	sem := make(chan struct{}, e.parallelism())
	var wg sync.WaitGroup
	diverged := make([]error, n)
	for t := 0; t < n; t++ {
		if src[t] != from+t {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			var res mpi.RunResult
			trials[t].Outcome, res, how[t] = e.execute(ctx, faults[t])
			diverged[t] = res.Divergence
		}(t)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, d := range diverged {
		if d != nil {
			return nil, nil, harnessError{Reason: d.Error()}
		}
	}
	for t, i := range src {
		switch {
		case i < from:
			trials[t].Outcome = prior[i].Outcome
		case i != from+t:
			trials[t].Outcome = trials[i-from].Outcome
		}
	}
	return trials, how, nil
}
