package core

import (
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/sense"
)

// SenseRecords and senseFeatures are kept only for bench/ffbench's
// senseLayer probe, which times the internal/sense feature store and model.
// They go with internal/sense once that probe is dropped.

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
