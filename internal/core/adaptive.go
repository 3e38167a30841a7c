package core

import (
	"context"
	"sort"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/stats"
)

// Adaptive trial budgets (Options.Adaptive.Enabled): instead of spending a
// fixed TrialsPerPoint at every injection point, a sequential settling
// rule (internal/stats.SettleTest) watches each point's outcome stream and
// stops as soon as the dominant outcome is statistically separated from
// the runner-up. The trials saved fund a refinement pass: part of the
// reclaimed budget flows back to the points with the widest outcome
// confidence intervals — the ones that stopped earliest — extending their
// trial prefix toward (never past) the original per-point budget. Every
// adaptive trial list therefore remains a prefix of what the fixed-budget
// run would record, which is what keeps per-point dominant outcomes
// aligned between the two modes. This is the paper's
// spend-where-it-matters principle applied along the trial axis rather
// than the point axis.
//
// Everything here is deterministic given Options.Seed: a trial's seed
// depends only on (point index, trial index), the stopping index is a pure
// function of the ordered outcome prefix, and refinement grants are a pure
// function of the phase-1 results. A one-worker campaign, a pooled one
// and an interrupted-then-resumed one therefore produce identical
// CampaignResults.

const (
	// adaptiveMinTrials is the floor before the settling rule may fire.
	// Together with adaptiveHold it is the guard against peeking
	// inflation (see internal/stats/sequential.go).
	adaptiveMinTrials = 12
	// adaptiveHold is how many consecutive observations the separation
	// must persist before the rule fires.
	adaptiveHold = 3
	// refineFraction caps the refinement pass at saved/refineFraction
	// extra trials, so adaptive campaigns bank at least three quarters of
	// the raw savings while still sharpening the most uncertain points.
	refineFraction = 4
)

// newSettle builds the settling test for one point at the engine's
// configured confidence.
func (e *Engine) newSettle() *stats.SettleTest {
	return stats.NewSettleTest(int(classify.NumOutcomes), stats.SettleConfig{
		Confidence: e.opts.Confidence,
		MinTrials:  adaptiveMinTrials,
		Hold:       adaptiveHold,
	})
}

// replaySettle reconstructs the settling test's state after observing the
// given trials in order — the mechanism by which resumed campaigns and the
// refinement pass recover stopping decisions from journaled results.
func (e *Engine) replaySettle(trials []TrialResult) *stats.SettleTest {
	st := e.newSettle()
	for _, t := range trials {
		st.Observe(int(t.Outcome))
	}
	return st
}

// InjectPointAdaptive injects a point under the sequential settling rule:
// up to TrialsPerPoint trials, stopping early once the dominant outcome is
// settled. The recorded trial list is the exact prefix an all-serial run
// would record, regardless of Parallelism.
func (e *Engine) InjectPointAdaptive(ctx context.Context, p Point, pointIdx int) (PointResult, error) {
	trials, how, err := e.runTrialsAdaptive(ctx, p, pointIdx, e.opts.TrialsPerPoint)
	if err != nil {
		return PointResult{Point: p}, err
	}
	return e.pointResult(p, trials, how), nil
}

// injectAuto dispatches to the adaptive or fixed-budget injector according
// to Options.Adaptive.Enabled.
func (e *Engine) injectAuto(ctx context.Context, p Point, pointIdx int) (PointResult, error) {
	if e.opts.Adaptive.Enabled {
		return e.InjectPointAdaptive(ctx, p, pointIdx)
	}
	return e.injectPointFiltered(ctx, p, pointIdx, e.opts.TrialsPerPoint, nil)
}

// runTrialsAdaptive executes a point's first trials, up to budget, in waves,
// feeding each outcome to the settling test in trial order and stopping at
// the first firing. Trials a wave produced beyond the stopping index are
// discarded — side-effect-free in the simulated world, and absent from the
// returned accounting — so the recorded prefix is independent of the wave
// size and of Parallelism.
func (e *Engine) runTrialsAdaptive(ctx context.Context, p Point, pointIdx, budget int) ([]TrialResult, []trialHow, error) {
	st, par := e.newSettle(), e.parallelism()
	out, outHow := make([]TrialResult, 0, budget), make([]trialHow, 0, budget)
	for len(out) < budget && !st.Settled() {
		wave := par
		// The rule cannot fire before EarliestFire observations, so the
		// opening wave safely runs up to that point in one batch.
		if lead := st.EarliestFire() - st.N(); lead > wave {
			wave = lead
		}
		if len(out)+wave > budget {
			wave = budget - len(out)
		}
		trs, how, err := e.runTrialWave(ctx, p, pointIdx, out, wave, nil)
		if err != nil {
			return nil, nil, err
		}
		for t, tr := range trs {
			out, outHow = append(out, tr), append(outHow, how[t])
			if st.Observe(int(tr.Outcome)) {
				return out, outHow, nil
			}
		}
	}
	return out, outHow, nil
}

// RefinePoint extends a point's trial sequence by exactly extra trials,
// continuing where the prior result stopped (trial seeds continue the same
// sequence, so the extension is the same trials a fixed-budget run would
// have executed next). The settling rule has already fired for refinement
// candidates; the extra trials only narrow the dominant outcome's interval.
func (e *Engine) RefinePoint(ctx context.Context, p Point, pointIdx int, prior PointResult, extra int) (PointResult, error) {
	more, how, err := e.runTrialWave(ctx, p, pointIdx, prior.Trials, extra, nil)
	if err != nil {
		return PointResult{Point: p}, err
	}
	trials := make([]TrialResult, 0, len(prior.Trials)+len(more))
	trials = append(trials, prior.Trials...)
	trials = append(trials, more...)
	return e.pointResult(prior.Point, trials, how), nil
}

// refineGrant is one point's share of the reclaimed trial budget.
type refineGrant struct {
	Idx   int // campaign injection index
	Extra int // additional trials granted
}

// refineGrants allocates part of the trials reclaimed by early stopping
// back to the points with the widest dominant-outcome confidence intervals
// — exactly the points the settling rule stopped earliest, whose estimates
// rest on the fewest observations. Candidates are ranked widest first
// (index ascending on ties) and the pool — saved/refineFraction, so the
// campaign banks most of the savings — is dealt out in chunks, capped at
// each point's remaining headroom so no point ever exceeds the original
// per-point budget. Extensions are deterministic trial-stream prefixes, so
// refinement can sharpen an estimate but never takes a point outside what
// the fixed-budget run would have measured. The allocation is a pure
// function of the phase-1 results, which is what keeps one-worker, pooled
// and resumed campaigns identical.
func (e *Engine) refineGrants(phase1 map[int]PointResult) []refineGrant {
	if !e.opts.Adaptive.Enabled {
		return nil
	}
	budget := e.opts.TrialsPerPoint
	saved := 0
	type cand struct {
		idx   int
		room  int
		width float64
	}
	var cands []cand
	for _, idx := range sortedIdxs(phase1) {
		pr := phase1[idx]
		used := len(pr.Trials)
		if used >= budget {
			continue // ran to the boundary: nothing saved, no headroom
		}
		saved += budget - used
		cands = append(cands, cand{
			idx:   idx,
			room:  budget - used,
			width: e.replaySettle(pr.Trials).DominantWidth(),
		})
	}
	pool := saved / refineFraction
	if pool == 0 || len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].width != cands[j].width {
			return cands[i].width > cands[j].width
		}
		return cands[i].idx < cands[j].idx
	})
	chunk := budget / 4
	if chunk < adaptiveMinTrials {
		chunk = adaptiveMinTrials
	}
	extras := make(map[int]int, len(cands))
	for pool > 0 {
		granted := false
		for i := range cands {
			c := &cands[i]
			if pool == 0 {
				break
			}
			g := chunk
			if g > pool {
				g = pool
			}
			if g > c.room {
				g = c.room
			}
			if g <= 0 {
				continue
			}
			extras[c.idx] += g
			c.room -= g
			pool -= g
			granted = true
		}
		if !granted {
			break
		}
	}
	grants := make([]refineGrant, 0, len(extras))
	for _, c := range cands {
		if extras[c.idx] > 0 {
			grants = append(grants, refineGrant{Idx: c.idx, Extra: extras[c.idx]})
		}
	}
	return grants
}

// phase1Result strips a (possibly refined) point record back to its
// phase-1 prefix of base trials, recomputing the outcome tallies. It is
// what the ML learn loop trains on during a resume, so the model retraces
// the exact path of an uninterrupted run even when the journal already
// holds refined records.
func phase1Result(pr PointResult, base int) PointResult {
	if base <= 0 || base >= len(pr.Trials) {
		return pr
	}
	out := PointResult{Point: pr.Point, Trials: pr.Trials[:base:base]}
	for _, t := range out.Trials {
		out.Counts.Add(t.Outcome)
	}
	return out
}

// emitSettled reports a point that stopped before its full budget.
func (e *Engine) emitSettled(idx int, pr PointResult, fromCheckpoint bool) {
	budget := e.opts.TrialsPerPoint
	if !e.opts.Adaptive.Enabled || len(pr.Trials) >= budget {
		return
	}
	e.emit(PointSettled{
		Index:          idx,
		Point:          pr.Point,
		Trials:         len(pr.Trials),
		Budget:         budget,
		Saved:          budget - len(pr.Trials),
		Dominant:       pr.MajorityOutcome(),
		FromCheckpoint: fromCheckpoint,
	})
}

// emitRefined reports a refinement-pass extension of a point.
func (e *Engine) emitRefined(idx int, pr, prior PointResult) {
	var added classify.Counts
	for _, t := range pr.Trials[len(prior.Trials):] {
		added.Add(t.Outcome)
	}
	e.emit(PointRefined{
		Index:  idx,
		Result: pr,
		Added:  added,
		Trials: len(pr.Trials),
		Extra:  len(pr.Trials) - len(prior.Trials),
	})
}
