package core

import (
	"bytes"
	"context"
	"path/filepath"
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

// TestAdaptiveSerialMatchesSupervised: with adaptive budgets on, a
// Workers:4 campaign (including its pooled refinement pass) must be
// bit-identical to RunCampaign's Workers:1 run of the same driver.
func TestAdaptiveSerialMatchesSupervised(t *testing.T) {
	opts := adaptiveTestOptions()
	serial, err := supTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(campaignBytes(t, serial), campaignBytes(t, sup.CampaignResult)) {
		t.Fatalf("adaptive supervised campaign diverged from serial:\nserial:     %s\nsupervised: %s",
			serial.Summary(), sup.Summary())
	}
}

// TestAdaptiveInterruptResumeDeterminism: an adaptive campaign cancelled
// mid-run and resumed from its journal must reproduce the uninterrupted
// result byte for byte, including per-point early-stop decisions and the
// refinement grants.
func TestAdaptiveInterruptResumeDeterminism(t *testing.T) {
	opts := adaptiveTestOptions()
	dir := t.TempDir()

	full, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: filepath.Join(dir, "full.ckpt"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Cancelled {
		t.Fatal("reference run cancelled?")
	}

	ckpt := filepath.Join(dir, "interrupted.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 3 {
			cancel()
		}
	})
	part, err := NewSupervisor(supTestEngine(t, intOpts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled {
		t.Fatal("interrupted run not marked Cancelled")
	}

	res, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCheckpoint == 0 {
		t.Fatal("resume restored nothing from the checkpoint")
	}
	if !bytes.Equal(campaignBytes(t, full.CampaignResult), campaignBytes(t, res.CampaignResult)) {
		t.Fatalf("resumed adaptive campaign diverged from uninterrupted run:\nfull:    %s\nresumed: %s",
			full.Summary(), res.Summary())
	}
}

// TestAdaptiveMLSerialSupervisedResumeIdentity covers the ML path: the
// Workers:1 run, the Workers:4 run, and interrupt/resume must all yield
// byte-identical CampaignResults with adaptive budgets on. This exercises
// the phase-1/refined split in the journal: the resumed learner must
// retrain on the phase-1 trial prefix even when the journal already holds
// refined records.
func TestAdaptiveMLSerialSupervisedResumeIdentity(t *testing.T) {
	opts := adaptiveTestOptions()
	opts.ML.Pruning = true
	opts.ML.Batch = 4
	dir := t.TempDir()

	serial, err := supTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: filepath.Join(dir, "full.ckpt"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(campaignBytes(t, serial), campaignBytes(t, full.CampaignResult)) {
		t.Fatalf("adaptive ML supervised run diverged from serial:\nserial:     %s\nsupervised: %s",
			serial.Summary(), full.Summary())
	}

	ckpt := filepath.Join(dir, "interrupted.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 2 {
			cancel()
		}
	})
	part, err := NewSupervisor(supTestEngine(t, intOpts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled {
		t.Fatal("interrupted adaptive ML run not marked Cancelled")
	}

	res, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(campaignBytes(t, full.CampaignResult), campaignBytes(t, res.CampaignResult)) {
		t.Fatalf("resumed adaptive ML campaign diverged:\nfull:    %s\nresumed: %s",
			full.Summary(), res.Summary())
	}
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
