package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Supervisor is the campaign driver — the one place the profile → prune →
// inject → learn pipeline runs (Engine.RunCampaign is a Workers:1
// supervised run): a point-level worker pool spreads a campaign across all
// cores, a checkpoint journal makes an interrupted campaign resumable
// exactly where it stopped, and per-point watchdogs with bounded retries
// classify *harness* failures — a panicking runner, a wedged profile —
// separately from injected-fault outcomes, quarantining points that
// repeatedly break the harness so the campaign degrades to a
// complete-with-skips report instead of aborting. The FINJ tool (Netti et al.) demonstrates exactly this
// supervision layer for production fault-injection campaigns.
type Supervisor struct {
	eng  *Engine
	opts SupervisorOptions
}

// SupervisorOptions configures a supervised campaign.
type SupervisorOptions struct {
	// Workers is the number of points injected concurrently. Zero picks a
	// default from GOMAXPROCS. Each point additionally parallelises its
	// trials per Options.Parallelism.
	Workers int
	// Checkpoint is the journal path. Empty disables persistence
	// (the campaign is still cancellable and watchdogged). If the file
	// exists and its fingerprint matches, the campaign resumes from it;
	// a mismatched journal is rejected with ErrCheckpointMismatch.
	Checkpoint string
	// MaxAttempts bounds harness attempts per point (first try included)
	// before the point is quarantined. Zero means 3.
	MaxAttempts int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt. Zero means 100ms.
	RetryBackoff time.Duration
	// PointTimeout is the per-attempt watchdog: a point whose injection
	// takes longer is declared wedged and retried (then quarantined).
	// Zero derives a generous bound from TrialsPerPoint and RunTimeout.
	PointTimeout time.Duration
	// Inject overrides the injection function — the seam tests use to
	// simulate harness panics and hangs deterministically, and replays
	// (dist.Merge, the Fig. 6 threshold sweep) use to answer points from
	// recorded results while the learn loop runs for real. Nil uses the
	// engine's injectAuto.
	Inject func(ctx context.Context, p Point, pointIdx, trials int) (PointResult, error)
}

func (o SupervisorOptions) withDefaults(eng *Engine) SupervisorOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)/2 + 1
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.PointTimeout <= 0 {
		// Worst case a point runs all trials serially against the
		// per-run timeout; pad generously — the watchdog exists to catch
		// a wedged harness, not to race healthy points.
		opts := eng.Options()
		o.PointTimeout = 2*time.Duration(opts.TrialsPerPoint)*opts.RunTimeout + 30*time.Second
	}
	return o
}

// SupervisedResult is a campaign outcome plus the supervision accounting.
type SupervisedResult struct {
	*CampaignResult
	// Quarantined lists the poison points withdrawn from the campaign,
	// in injection order. They are excluded from Measured and from the
	// Injected count.
	Quarantined []QuarantinedPoint
	// FromCheckpoint is the number of points restored from the journal
	// rather than injected in this run.
	FromCheckpoint int
	// HarnessRetries counts harness-failure retries across all points.
	HarnessRetries int
	// Cancelled reports the campaign stopped early on context
	// cancellation; the result is partial and resumable from Checkpoint.
	Cancelled bool
	// Checkpoint is the journal path in use ("" if persistence was off).
	Checkpoint string
}

// NewSupervisor builds a supervisor over an engine. Per-point progress is
// observed through the engine's event stream (Options.Observer): every
// measured or quarantined point emits a PointCompleted / PointQuarantined
// event in completion order.
func NewSupervisor(e *Engine, opts SupervisorOptions) *Supervisor {
	return &Supervisor{eng: e, opts: opts.withDefaults(e)}
}

// ResumeCampaign resumes a supervised campaign from an existing checkpoint
// journal, failing if the journal is missing rather than silently starting
// over.
func ResumeCampaign(ctx context.Context, e *Engine, opts SupervisorOptions) (*SupervisedResult, error) {
	if opts.Checkpoint == "" {
		return nil, fmt.Errorf("resume: no checkpoint path given")
	}
	if _, err := os.Stat(opts.Checkpoint); err != nil {
		return nil, fmt.Errorf("resume: checkpoint %s not found: %w", opts.Checkpoint, err)
	}
	return NewSupervisor(e, opts).Run(ctx)
}

// harnessError is a failure of the injection harness itself — a runner
// panic or a watchdog expiry — as opposed to an injected-fault outcome,
// which is ordinary data. The two must never be conflated: a harness
// failure says nothing about the application's sensitivity.
type harnessError struct {
	Reason string
}

func (h harnessError) Error() string { return "harness failure: " + h.Reason }

// Run executes (or resumes) the supervised campaign. On context
// cancellation it returns the partial result with Cancelled set and a nil
// error; the checkpoint journal, if any, holds everything completed so far.
func (s *Supervisor) Run(ctx context.Context) (*SupervisedResult, error) {
	e := s.eng
	e.emitCampaignStarted()

	plan, err := s.planWithRetry(ctx)
	if err != nil {
		return nil, err
	}

	sup := &SupervisedResult{CampaignResult: plan.res, Checkpoint: s.opts.Checkpoint}

	// Open or create the checkpoint journal and restore prior progress.
	var ckpt *Checkpoint
	state := newCheckpointState()
	if s.opts.Checkpoint != "" {
		fp := CampaignFingerprint(e.App().Name(), e.Config(), e.Options(), plan.points)
		if _, statErr := os.Stat(s.opts.Checkpoint); statErr == nil {
			ckpt, state, err = OpenCheckpoint(s.opts.Checkpoint, fp)
			if err != nil {
				return nil, err
			}
			sup.FromCheckpoint = len(state.Results)
			e.logf("resuming from checkpoint %s: %d points done, %d quarantined",
				s.opts.Checkpoint, len(state.Results), len(state.Quarantined))
		} else {
			ckpt, err = CreateCheckpoint(s.opts.Checkpoint, fp, e.App().Name(), e.Config().Ranks, len(plan.points))
			if err != nil {
				return nil, err
			}
		}
		defer ckpt.Close()
	}

	run := &supervisedRun{
		sup:     s,
		ckpt:    ckpt,
		results: state.Results,
		quar:    state.Quarantined,
		base:    state.BaseTrials,
		total:   len(plan.points),
	}
	// Replay restored progress into the event stream (in index order, with
	// FromCheckpoint set) so streaming consumers of a resumed campaign
	// accumulate exactly the tallies an uninterrupted run would produce.
	restored := append(sortedIdxs(run.results), sortedIdxs(run.quar)...)
	sort.Ints(restored)
	for _, idx := range restored {
		run.completed++
		if pr, ok := run.results[idx]; ok {
			// Completion replays carry the phase-1 prefix; refined extras
			// follow as PointRefined replays below, so streaming tallies
			// accumulate exactly as in the uninterrupted run.
			p1 := phase1Result(pr, run.base[idx])
			e.emitSettled(idx, p1, true)
			e.emit(PointCompleted{Index: idx, Result: p1, Completed: run.completed,
				Total: run.total, FromCheckpoint: true})
		} else {
			e.emit(PointQuarantined{Point: run.quar[idx], Completed: run.completed,
				Total: run.total, FromCheckpoint: true})
		}
	}
	for _, idx := range restored {
		if pr, ok := run.results[idx]; ok && run.refined(idx) {
			e.emitRefined(idx, pr, phase1Result(pr, run.base[idx]))
		}
	}

	if e.Options().ML.Pruning {
		s.runML(ctx, plan, run)
	} else {
		s.runDirect(ctx, plan.points, run)
		if e.Options().Adaptive.Enabled && ctx.Err() == nil && run.err() == nil {
			s.refinePass(ctx, run, func(idx int) Point { return plan.points[idx] }, nil)
		}
	}

	if err := run.err(); err != nil {
		return nil, err
	}
	sup.Cancelled = ctx.Err() != nil
	sup.HarnessRetries = run.retries
	for _, idx := range sortedIdxs(run.quar) {
		sup.Quarantined = append(sup.Quarantined, run.quar[idx])
	}
	if !e.Options().ML.Pruning {
		// Deterministic assembly: measured results in injection order,
		// regardless of which worker finished first — a resumed campaign
		// is bit-identical to an uninterrupted one.
		for _, idx := range sortedIdxs(run.results) {
			plan.res.Measured = append(plan.res.Measured, run.results[idx])
		}
	}
	fin := plan.finish()
	e.emit(e.stats.snapshot())
	e.emit(CampaignFinished{
		App:         fin.AppName,
		Injected:    fin.Injected,
		Predicted:   fin.PredictedN,
		Quarantined: len(sup.Quarantined),
		Counts:      OutcomeBreakdown(fin.Measured),
		Cancelled:   sup.Cancelled,
	})
	return sup, nil
}

// planWithRetry profiles and prunes the campaign, treating a hung or
// failed profile run as a harness action: retried with backoff before
// giving up on the whole campaign.
func (s *Supervisor) planWithRetry(ctx context.Context) (*campaignPlan, error) {
	e := s.eng
	for attempt := 1; ; attempt++ {
		plan, err := e.planCampaign()
		if err == nil {
			return plan, nil
		}
		if attempt >= s.opts.MaxAttempts || ctx.Err() != nil {
			return nil, fmt.Errorf("campaign profiling failed after %d attempts: %w", attempt, err)
		}
		e.logf("profiling attempt %d failed (%v); retrying", attempt, err)
		if !sleepCtx(ctx, s.backoff(attempt)) {
			return nil, ctx.Err()
		}
	}
}

// supervisedRun is the mutable shared state of one Run call.
type supervisedRun struct {
	sup  *Supervisor
	ckpt *Checkpoint
	// sink, when non-nil, receives each completed point as a journal record
	// in completion order — the worker shard's streaming hook (RunRange). A
	// sink error aborts the run just like a checkpoint I/O failure.
	sink func(PointRecord) error

	mu        sync.Mutex
	results   map[int]PointResult
	quar      map[int]QuarantinedPoint
	base      map[int]int // phase-1 trial count per completed point
	retries   int
	completed int
	total     int
	appends   int   // journal records written by this run
	firstErr  error // checkpoint I/O or refinement harness failure: abort, do not lose data silently
}

func (r *supervisedRun) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr
}

// fail makes err the run's error unless it already has one.
func (r *supervisedRun) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// journal appends one record to the checkpoint, if the run has one, and
// reports it; a failed append becomes the run's error. Callers hold r.mu.
func (r *supervisedRun) journal(idx int, write func(*Checkpoint) error) {
	if r.ckpt == nil {
		return
	}
	if err := write(r.ckpt); err != nil {
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.appends++
	r.sup.eng.emit(CheckpointAppended{Path: r.ckpt.Path(), Index: idx, Records: r.appends})
}

// record journals and stores one completed point. The PointCompleted (and
// CheckpointAppended) events are emitted while the run lock is held, which
// is what guarantees completion events arrive with strictly increasing
// Completed counts even under a concurrent worker pool.
func (r *supervisedRun) record(idx int, pr PointResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.sup.eng
	r.results[idx] = pr
	r.base[idx] = len(pr.Trials)
	r.completed++
	e.emitSettled(idx, pr, false)
	e.emit(PointCompleted{Index: idx, Result: pr, Completed: r.completed, Total: r.total})
	r.journal(idx, func(c *Checkpoint) error { return c.AppendResult(idx, pr, len(pr.Trials)) })
	if r.sink != nil {
		if err := r.sink(PointRecord{Index: idx, Result: pr, Base: len(pr.Trials)}); err != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("journal sink: point %d: %w", idx, err)
		}
	}
}

// recordRefined journals and stores one refined point: the same index gets
// a second journal record (last-wins on load) whose Base stays the phase-1
// count, so a resumed learn loop still trains on the phase-1 prefix.
func (r *supervisedRun) recordRefined(idx int, pr, prior PointResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[idx] = pr
	r.sup.eng.emitRefined(idx, pr, prior)
	r.journal(idx, func(c *Checkpoint) error { return c.AppendResult(idx, pr, r.base[idx]) })
}

// phase1 returns every completed point stripped to its phase-1 prefix —
// the deterministic input the refinement allocation is computed from.
func (r *supervisedRun) phase1() map[int]PointResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]PointResult, len(r.results))
	for idx, pr := range r.results {
		out[idx] = phase1Result(pr, r.base[idx])
	}
	return out
}

// refined reports whether a point already carries refinement trials
// (restored from a journal or refined earlier in this run).
func (r *supervisedRun) refined(idx int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results[idx].Trials) > r.base[idx]
}

func (r *supervisedRun) result(idx int) PointResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results[idx]
}

// quarantine journals and stores one poison point.
func (r *supervisedRun) quarantine(q QuarantinedPoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quar[q.Index] = q
	r.completed++
	r.sup.eng.emit(PointQuarantined{Point: q, Completed: r.completed, Total: r.total})
	r.journal(q.Index, func(c *Checkpoint) error { return c.AppendQuarantine(q) })
}

func (r *supervisedRun) bumpRetries() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// pool is the campaign's one point fan-out: it calls fn for each item on
// at most Workers goroutines and returns when all have finished. Items are
// dispatched in slice order, so a Workers:1 run is strictly sequential.
// Dispatch stops at context cancellation or the run's first journal/sink
// error — a campaign that can no longer persist results must not keep
// spending trials on them.
func pool[T any](ctx context.Context, run *supervisedRun, items []T, fn func(T)) {
	sem := make(chan struct{}, run.sup.opts.Workers)
	var wg sync.WaitGroup
	for _, it := range items {
		sem <- struct{}{} // wait for a free worker before deciding to go on
		if ctx.Err() != nil || run.err() != nil {
			break
		}
		wg.Add(1)
		go func(it T) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(it)
		}(it)
	}
	wg.Wait()
}

// pending returns the indexes in [lo, hi) this run has neither measured
// nor quarantined yet, in order.
func (r *supervisedRun) pending(lo, hi int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	todo := make([]int, 0, hi-lo)
	for idx := lo; idx < hi; idx++ {
		_, measured := r.results[idx]
		_, quarantined := r.quar[idx]
		if !measured && !quarantined {
			todo = append(todo, idx)
		}
	}
	return todo
}

// runDirect injects every point (no ML pruning) through the worker pool.
func (s *Supervisor) runDirect(ctx context.Context, points []Point, run *supervisedRun) {
	s.eng.emit(PhaseChanged{Phase: CampaignInjecting, Points: run.total})
	pool(ctx, run, run.pending(0, len(points)), func(idx int) { s.runPoint(ctx, points[idx], idx, run) })
}

// runML drives the injection/learning feedback loop, parallelising each
// batch through the pool and replaying checkpointed results so a resumed
// ML campaign retraces the exact path of an uninterrupted one.
func (s *Supervisor) runML(ctx context.Context, plan *campaignPlan, run *supervisedRun) {
	res := plan.res
	lr, abortedLoop := s.eng.learnCampaignBatched(plan.points, func(ps []Point, idxs []int) []*PointResult {
		// idxs is a contiguous run of the shuffled order, ps its points.
		lo := idxs[0]
		pool(ctx, run, run.pending(lo, lo+len(idxs)), func(idx int) { s.runPoint(ctx, ps[idx-lo], idx, run) })
		if ctx.Err() != nil || run.err() != nil {
			return nil
		}
		out := make([]*PointResult, len(ps))
		run.mu.Lock()
		defer run.mu.Unlock()
		for i, idx := range idxs {
			if pr, ok := run.results[idx]; ok {
				// A resumed journal may already hold the refined record;
				// the learn loop must train on the phase-1 prefix to
				// retrace the uninterrupted run's path.
				p1 := phase1Result(pr, run.base[idx])
				out[i] = &p1
			} // else quarantined → nil entry, skipped by the learner
		}
		return out
	})
	res.Learn = &lr
	res.Measured = lr.Measured
	res.Predicted = lr.Predicted
	res.MLReduction = lr.Reduction
	res.VerifyAccuracy = lr.VerifyAccuracy

	if s.eng.Options().Adaptive.Enabled && !abortedLoop && ctx.Err() == nil && run.err() == nil {
		// Refine over the measured subset only, then install the refined
		// records back into Measured at their loop positions.
		pos := make(map[int]int, len(lr.MeasuredIdx))
		for p, idx := range lr.MeasuredIdx {
			pos[idx] = p
		}
		shuffled := shuffledPoints(s.eng, plan.points)
		s.refinePass(ctx, run, func(idx int) Point { return shuffled[idx] }, pos)
		for idx, p := range pos {
			lr.Measured[p] = run.result(idx)
		}
	}
}

// shuffledPoints reproduces the learn loop's shuffled campaign order, the
// index space its trial seeds and journal records use.
func shuffledPoints(e *Engine, points []Point) []Point {
	pts := append([]Point(nil), points...)
	rng := newRand(e.Options().Seed*31 + 7)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// refinePass respends the trials reclaimed by early stopping: grants are
// computed from the phase-1 results (a pure function, so every execution
// path allocates identically), then granted points are extended through
// the worker pool. only, when non-nil, restricts candidates to those
// indices (the ML path refines measured points only). Already-refined
// points — restored from a journal or completed by an earlier interrupted
// refinement — are skipped, which is what makes the pass idempotent under
// interrupt/resume.
func (s *Supervisor) refinePass(ctx context.Context, run *supervisedRun, pointAt func(int) Point, only map[int]int) {
	e := s.eng
	phase1 := run.phase1()
	if only != nil {
		for idx := range phase1 {
			if _, ok := only[idx]; !ok {
				delete(phase1, idx)
			}
		}
	}
	grants := e.refineGrants(phase1)
	if len(grants) == 0 {
		return
	}
	e.emit(PhaseChanged{Phase: CampaignRefining, Points: len(grants)})
	var todo []refineGrant
	for _, g := range grants {
		if !run.refined(g.Idx) {
			todo = append(todo, g)
		}
	}
	pool(ctx, run, todo, func(g refineGrant) {
		prior := phase1[g.Idx]
		pr, err := e.RefinePoint(ctx, pointAt(g.Idx), g.Idx, prior, g.Extra)
		if h := (harnessError{}); errors.As(err, &h) {
			run.fail(fmt.Errorf("refining point %d: %w", g.Idx, h))
		}
		if err != nil {
			return // cancelled: the point resumes unrefined
		}
		run.recordRefined(g.Idx, pr, prior)
	})
}

// runPoint executes one point under the watchdog with bounded retries,
// quarantining it if every attempt dies in the harness.
func (s *Supervisor) runPoint(ctx context.Context, p Point, idx int, run *supervisedRun) {
	s.eng.emit(PointStarted{Index: idx, Point: p})
	var lastErr error
	for attempt := 1; attempt <= s.opts.MaxAttempts; attempt++ {
		pr, err := s.attempt(ctx, p, idx)
		if err == nil {
			run.record(idx, pr)
			return
		}
		if ctx.Err() != nil {
			return // cancelled, not a harness verdict: leave the point for resume
		}
		lastErr = err
		s.eng.emit(PointRetried{Index: idx, Point: p, Attempt: attempt,
			MaxAttempts: s.opts.MaxAttempts, Err: err.Error()})
		if attempt < s.opts.MaxAttempts {
			run.bumpRetries()
			if !sleepCtx(ctx, s.backoff(attempt)) {
				return
			}
		}
	}
	run.quarantine(QuarantinedPoint{Point: p, Index: idx, Attempts: s.opts.MaxAttempts, Err: lastErr.Error()})
}

// attempt runs one injection attempt in its own goroutine, converting a
// harness panic into an error and abandoning the attempt if the watchdog
// expires. An abandoned goroutine's simulated runs still die at their own
// RunTimeout; only its (meaningless) result is discarded.
func (s *Supervisor) attempt(ctx context.Context, p Point, idx int) (PointResult, error) {
	type outcome struct {
		pr  PointResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: harnessError{Reason: fmt.Sprintf("runner panic: %v", rec)}}
			}
		}()
		pr, err := s.inject(ctx, p, idx)
		ch <- outcome{pr: pr, err: err}
	}()

	watchdog := time.NewTimer(s.opts.PointTimeout)
	defer watchdog.Stop()
	select {
	case out := <-ch:
		return out.pr, out.err
	case <-watchdog.C:
		return PointResult{}, harnessError{Reason: fmt.Sprintf("watchdog: point wedged for %v", s.opts.PointTimeout)}
	case <-ctx.Done():
		return PointResult{}, ctx.Err()
	}
}

func (s *Supervisor) inject(ctx context.Context, p Point, idx int) (PointResult, error) {
	if s.opts.Inject != nil {
		return s.opts.Inject(ctx, p, idx, s.eng.Options().TrialsPerPoint)
	}
	return s.eng.injectAuto(ctx, p, idx)
}

// backoff returns the exponential retry delay for the given attempt number.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.opts.RetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// sleepCtx sleeps for d unless ctx is done first; it reports whether the
// full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func sortedIdxs[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for idx := range m {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}
