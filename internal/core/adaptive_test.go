package core

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/is"
)

// adaptiveTestOptions is a direct-injection campaign with enough trials per
// point for the settling rule to fire well before the budget.
func adaptiveTestOptions() Options {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 32
	opts.ML.Pruning = false
	opts.Adaptive.Enabled = true
	opts.RunTimeout = 10 * time.Second
	return opts
}

// TestAdaptiveDominantOutcomeAgreement is the statistical acceptance test
// for the settling rule: across many seeded micro-campaigns, every point
// the adaptive controller stopped early must report the same dominant
// outcome as the full fixed-budget run of the same campaign. With a shared
// seed the adaptive run's trials are a prefix of the fixed run's (the trial
// stream is a pure function of (pointIdx, trial)), so this directly checks
// that the Wilson separation rule only fires once the majority is stable.
func TestAdaptiveDominantOutcomeAgreement(t *testing.T) {
	const seeds = 20
	// Keep the 20-seed sweep affordable: a small campaign with parallel
	// trial execution still exercises every settling decision.
	microEngine := func(opts Options) *Engine {
		app := is.New()
		cfg := app.DefaultConfig()
		cfg.Ranks = 4
		cfg.Scale = 64
		return New(app, cfg, opts)
	}
	settledTotal, savedTotal, budgetTotal := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		fixedOpts := adaptiveTestOptions()
		fixedOpts.Parallelism = 8
		fixedOpts.Adaptive.Enabled = false
		fixedOpts.Seed = seed
		fixed, err := microEngine(fixedOpts).RunCampaign()
		if err != nil {
			t.Fatal(err)
		}

		adOpts := adaptiveTestOptions()
		adOpts.Parallelism = 8
		adOpts.Seed = seed
		adaptive, err := microEngine(adOpts).RunCampaign()
		if err != nil {
			t.Fatal(err)
		}

		if len(fixed.Measured) != len(adaptive.Measured) {
			t.Fatalf("seed %d: measured %d adaptive vs %d fixed points",
				seed, len(adaptive.Measured), len(fixed.Measured))
		}
		for i := range adaptive.Measured {
			apr, fpr := adaptive.Measured[i], fixed.Measured[i]
			if apr.Point != fpr.Point {
				t.Fatalf("seed %d point %d: plans diverged: %v vs %v",
					seed, i, apr.Point, fpr.Point)
			}
			budgetTotal += adOpts.TrialsPerPoint
			if len(apr.Trials) >= adOpts.TrialsPerPoint {
				continue // ran to budget: identical to the fixed run
			}
			settledTotal++
			savedTotal += adOpts.TrialsPerPoint - len(apr.Trials)
			if got, want := apr.MajorityOutcome(), fpr.MajorityOutcome(); got != want {
				t.Errorf("seed %d point %d: early stop at %d/%d trials picked dominant %v, full run says %v",
					seed, i, len(apr.Trials), adOpts.TrialsPerPoint, got, want)
			}
		}
	}
	if settledTotal == 0 {
		t.Fatal("no point settled early across any seed; the test exercised nothing")
	}
	t.Logf("%d early-settled points across %d seeds, %d of %d budgeted trials saved (%.1f%%)",
		settledTotal, seeds, savedTotal, budgetTotal, 100*float64(savedTotal)/float64(budgetTotal))
}

// TestAdaptiveSavesTrials: on a campaign with clearly-dominated points the
// adaptive controller must actually reduce the simulated-run total, and the
// refinement pass must never spend past the original campaign budget.
func TestAdaptiveSavesTrials(t *testing.T) {
	opts := adaptiveTestOptions()
	res, err := supTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	total, budget := 0, len(res.Measured)*opts.TrialsPerPoint
	for _, pr := range res.Measured {
		total += pr.Counts.Total()
		if len(pr.Trials) != pr.Counts.Total() {
			t.Fatalf("point %v: counts (%d) disagree with trial list (%d)",
				pr.Point, pr.Counts.Total(), len(pr.Trials))
		}
	}
	if total >= budget {
		t.Fatalf("adaptive budgets saved nothing: ran %d of %d budgeted trials", total, budget)
	}
	t.Logf("ran %d of %d budgeted trials (%.1f%% saved)",
		total, budget, 100*(1-float64(total)/float64(budget)))
}

// TestAdaptiveRefinementCappedByBudget: refinement extends a point's trial
// prefix toward, never past, its original per-point budget, so the
// campaign total stays strictly under the fixed-budget total.
func TestAdaptiveRefinementCappedByBudget(t *testing.T) {
	opts := adaptiveTestOptions()
	res, err := supTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pr := range res.Measured {
		total += len(pr.Trials)
		if len(pr.Trials) > opts.TrialsPerPoint {
			t.Fatalf("point %v exceeded its per-point budget: %d trials (budget %d)",
				pr.Point, len(pr.Trials), opts.TrialsPerPoint)
		}
	}
	if budget := len(res.Measured) * opts.TrialsPerPoint; total >= budget {
		t.Fatalf("refinement overspent: %d trials run, campaign budget %d", total, budget)
	}
}
