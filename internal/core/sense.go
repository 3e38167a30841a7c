package core

import (
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/sense"
)

// Cross-campaign sensitivity integration. When an Options.Sense.Advisor is
// attached, planCampaign offers every pruned point to the advisor before
// injection: points whose predicted dominant outcome clears the advisor's
// confidence gate are withdrawn from the injection plan and recorded as
// SenseAdvice — they cost zero trials. Points below the gate fall through
// to the ordinary engine untouched, which is why a gate of 1.0 (the
// advisor never serves) leaves the campaign byte-identical to a
// never-sensed run: same point list, same fingerprint, same events, same
// persisted JSON. The differential suite pins that identity on the direct,
// ML and adaptive paths.

// Sense groups the cross-campaign sensitivity options.
type Sense struct {
	// Advisor, when set, is consulted for every point that survives the
	// static pruning passes. Predictions that clear the advisor's
	// confidence gate replace real injection; the rest fall back to the
	// ordinary engine. Nil disables sensing entirely.
	Advisor *sense.Advisor
}

// SenseAdvice is one point answered from the cross-campaign model with
// zero trials.
type SenseAdvice struct {
	Point      Point            `json:"point"`
	Outcome    classify.Outcome `json:"outcome"`
	Confidence float64          `json:"confidence"`
}

// senseFeatures converts a point to the transferable feature schema the
// cross-campaign model consumes.
func senseFeatures(app string, ranks int, policy FaultPolicy, p Point) sense.Features {
	return sense.Features{
		App:         app,
		Ranks:       ranks,
		Policy:      int(policy),
		CollType:    int(p.Type),
		Phase:       int(p.Phase),
		ErrHandling: p.ErrHandling,
		IsRoot:      p.IsRoot,
		NInv:        p.NInv,
		StackDepth:  p.StackDepth,
		NDiffStacks: p.NDiffStacks,
	}
}

// senseFilter offers every planned point to the advisor, returning the
// points still needing injection and the advice that replaced the rest.
func (e *Engine) senseFilter(points []Point) (remaining []Point, advised []SenseAdvice) {
	adv := e.opts.Sense.Advisor
	for _, p := range points {
		ad, ok := adv.Advise(senseFeatures(e.app.Name(), e.cfg.Ranks, e.opts.Policy, p))
		if !ok {
			remaining = append(remaining, p)
			continue
		}
		advised = append(advised, SenseAdvice{
			Point:      p,
			Outcome:    classify.Outcome(ad.Outcome),
			Confidence: ad.Confidence,
		})
	}
	return remaining, advised
}

// SenseRecords converts a finished campaign's measured points into feature
// store records, keyed by the campaign's app. Points with no trials
// (possible only on hand-built results) are skipped.
func SenseRecords(res *CampaignResult) []sense.Record {
	var out []sense.Record
	for _, pr := range res.Measured {
		trials := pr.Counts.Total()
		if trials == 0 {
			continue
		}
		counts := make([]int, sense.Classes)
		for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
			counts[o] = pr.Counts[o]
		}
		out = append(out, sense.Record{
			Features: senseFeatures(res.AppName, res.Ranks, res.Policy, pr.Point),
			Counts:   counts,
			Trials:   trials,
		})
	}
	return out
}
