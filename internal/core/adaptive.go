package core

import (
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
// given trials in order — the mechanism by which runTrials resumes a
// sequence and the refinement pass ranks journaled results.
func (e *Engine) replaySettle(trials []TrialResult) *stats.SettleTest {
	st := e.newSettle()
	for _, t := range trials {
		st.Observe(int(t.Outcome))
	}
	return st
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
	return newPointResult(pr.Point, pr.Trials[:base:base])
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
