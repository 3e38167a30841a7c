package core

import (
	"context"
	"fmt"
	"strings"
)

// CampaignResult is the complete outcome of a FastFIT campaign on one
// application: the pruning accounting of the paper's Table III plus the
// per-point injection results feeding every sensitivity figure.
type CampaignResult struct {
	AppName string `json:"app"`
	Ranks   int    `json:"ranks"`
	// Policy is the fault policy the campaign injected under. It is part of
	// the transferable feature schema: outcome tallies are only comparable
	// across campaigns that corrupted the same thing.
	Policy FaultPolicy `json:"policy"`

	// Point accounting through the pruning pipeline.
	TotalPoints   int `json:"totalPoints"` // all (rank, site, invocation) triples
	AfterSemantic int `json:"afterSemantic"`
	AfterContext  int `json:"afterContext"`
	Injected      int `json:"injected"`  // points actually injected
	PredictedN    int `json:"predicted"` // points predicted by the model

	// Reduction ratios as the paper reports them: each technique's
	// reduction is relative to the space it received (Table III's MPI,
	// App and ML columns), and Total is relative to the full space.
	SemanticReduction float64 `json:"semanticReduction"`
	ContextReduction  float64 `json:"contextReduction"`
	MLReduction       float64 `json:"mlReduction"`
	TotalReduction    float64 `json:"totalReduction"`
	VerifyAccuracy    float64 `json:"verifyAccuracy"`

	Measured  []PointResult `json:"measured"`
	Predicted []Prediction  `json:"predictions,omitempty"`
}

// campaignPlan is the profiled-and-pruned injection space of one campaign:
// the points left to inject, in injection order, plus the pruning
// accounting already filled into a fresh CampaignResult. Every run starts
// from a plan, so an interrupted campaign resumes over exactly the order an
// uninterrupted run would have used.
type campaignPlan struct {
	res *CampaignResult
	// order is the campaign's one index space: the pruned points, shuffled
	// by the seed under ML pruning (the learn loop's random batches). Trial
	// seeds, journal records, shard ranges and the ML frontier all index it.
	order []Point
	// fp is the campaign fingerprint, computed over the unshuffled pruned
	// points, that journals and shards are keyed by.
	fp string
}

// planCampaign returns the campaign's plan with a fresh CampaignResult.
// The engine plans once (prune) and keeps the plan: a shard plans again on
// every lease, and re-enumerating the points and hashing the fingerprint
// would cost each lease as much as the first. A failed plan is not kept.
// Every call emits the planning phases and log lines, so event streams do
// not depend on whether the plan was kept.
func (e *Engine) planCampaign() (*campaignPlan, error) {
	e.emit(PhaseChanged{Phase: CampaignProfiling})
	p := e.plan.Load()
	if p == nil {
		var err error
		if p, err = e.prune(); err != nil {
			return nil, err
		}
		e.plan.Store(p)
	}
	res := *p.res
	e.emit(PhaseChanged{Phase: CampaignPruning, Points: res.TotalPoints})
	e.logf("profiled %s: %d injection points", e.app.Name(), res.TotalPoints)
	if e.opts.Pruning.Semantic {
		e.logf("semantic pruning: %d points (%.1f%% eliminated)", res.AfterSemantic, 100*res.SemanticReduction)
	}
	if e.opts.Pruning.Context {
		e.logf("context pruning: %d points (%.1f%% eliminated)", res.AfterContext, 100*res.ContextReduction)
	}
	return &campaignPlan{res: &res, order: p.order, fp: p.fp}, nil
}

// prune profiles the application and applies the semantic and context
// pruning passes, returning the surviving points in injection order with
// the pruning accounting.
func (e *Engine) prune() (*campaignPlan, error) {
	prof, err := e.Profile()
	if err != nil {
		return nil, err
	}
	points := enumeratePoints(prof)
	res := &CampaignResult{
		AppName:     e.app.Name(),
		Ranks:       e.cfg.Ranks,
		Policy:      e.opts.Policy,
		TotalPoints: len(points),
	}
	if e.opts.Pruning.Semantic {
		points, res.SemanticReduction = SemanticPrune(prof, points)
	}
	res.AfterSemantic = len(points)
	if e.opts.Pruning.Context {
		points, res.ContextReduction = ContextPrune(points)
	}
	res.AfterContext = len(points)

	fp := CampaignFingerprint(e.app.Name(), e.cfg, e.opts, points)
	if e.opts.ML.Pruning {
		rng := newRand(e.opts.Seed*31 + 7)
		rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	}
	return &campaignPlan{res: res, order: points, fp: fp}, nil
}

// finish fills the accounting fields that depend on injection results.
func (p *campaignPlan) finish() *CampaignResult {
	res := p.res
	res.Injected = len(res.Measured)
	res.PredictedN = len(res.Predicted)
	if len(p.order) > 0 {
		res.MLReduction = float64(res.PredictedN) / float64(len(p.order))
	}
	if res.TotalPoints > 0 {
		res.TotalReduction = 1 - float64(res.Injected)/float64(res.TotalPoints)
	}
	return res
}

// RunCampaign executes the full FastFIT pipeline — profile, prune, inject,
// learn — one point at a time: it is, by definition, the journal-less
// Workers:1 supervised campaign, the reference every other execution mode
// is byte-compared against. A point the harness could not measure is an
// error here rather than a quarantine: the caller gets a CampaignResult
// with no Quarantined field to inspect, so a result silently short of
// points must not be returned. For a cancellable, checkpointed,
// point-parallel campaign use a Supervisor directly.
func (e *Engine) RunCampaign() (*CampaignResult, error) {
	sup, err := NewSupervisor(e, SupervisorOptions{Workers: 1, MaxAttempts: 1}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	if len(sup.Quarantined) > 0 {
		q := sup.Quarantined[0]
		return nil, fmt.Errorf("campaign of %s: point %d (%s): %s (%d points unmeasured)",
			e.app.Name(), q.Index, q.Point.SiteName, q.Err, len(sup.Quarantined))
	}
	return sup.CampaignResult, nil
}

// Summary renders the campaign's pruning accounting as a one-line record
// in the shape of a Table III row.
func (r *CampaignResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: points %d", r.AppName, r.TotalPoints)
	fmt.Fprintf(&sb, " -> semantic %d (%.2f%%)", r.AfterSemantic, 100*r.SemanticReduction)
	fmt.Fprintf(&sb, " -> context %d (%.2f%%)", r.AfterContext, 100*r.ContextReduction)
	if r.PredictedN > 0 || r.MLReduction > 0 {
		fmt.Fprintf(&sb, " -> ML injected %d predicted %d (%.2f%%)", r.Injected, r.PredictedN, 100*r.MLReduction)
	}
	fmt.Fprintf(&sb, "; total reduction %.2f%%", 100*r.TotalReduction)
	return sb.String()
}
