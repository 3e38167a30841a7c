package core

import (
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/ml"
)

// Prediction is a point whose sensitivity the model estimated instead of
// measuring.
type Prediction struct {
	Point Point `json:"point"`
	Level int   `json:"level"` // predicted error-rate level in [0, Options.Levels)
}

// batchInjector injects positions [lo, hi) of the campaign order for the
// learning loop and returns their results in order (each trial's seed
// derives from the position, so replaying the same order reproduces the
// same results bit for bit). A nil entry marks a point the harness could
// not measure (a supervisor's quarantined poison point); returning a nil
// slice aborts the loop (cancellation).
type batchInjector func(lo, hi int) []*PointResult

// learnCampaignBatched is the injection/learning feedback loop (paper
// §III-C) over the campaign order: inject a batch, train the random forest
// on everything measured so far, verify its accuracy on the next batch
// before that batch joins the training set, and once the accuracy threshold
// is met predict the remaining points instead of injecting them. It returns
// the predictions and the last verification accuracy, the quantity compared
// against Options.AccuracyThreshold. A loop the injector aborted predicts
// nothing: an immature model must not fabricate sensitivity levels for a
// campaign that will resume later.
func (e *Engine) learnCampaignBatched(order []Point, inject batchInjector) (predicted []Prediction, accuracy float64) {
	opts := e.opts
	e.emit(PhaseChanged{Phase: CampaignLearning, Points: len(order)})

	var measured []PointResult
	var forest *ml.Forest
	i := 0
	for i < len(order) {
		end := min(i+opts.ML.Batch, len(order))
		injected := inject(i, end)
		if injected == nil {
			return nil, accuracy
		}
		i = end
		batch := make([]PointResult, 0, len(injected))
		for _, pr := range injected {
			if pr != nil {
				batch = append(batch, *pr)
			}
		}

		// Verification: how well does the current model predict the batch
		// it has not seen?
		if forest != nil && len(measured) >= opts.ML.MinTrain && len(batch) > 0 {
			correct := 0
			for _, pr := range batch {
				pred := forest.Predict(pr.Point.FeatureVector())
				if pred == classify.RateLevel(pr.ErrorRate(), opts.Levels) {
					correct++
				}
			}
			accuracy = float64(correct) / float64(len(batch))
			e.emit(BatchVerified{
				BatchSize: len(batch),
				Measured:  len(measured),
				Accuracy:  accuracy,
				Threshold: opts.AccuracyThreshold,
				Met:       accuracy >= opts.AccuracyThreshold,
			})
			if accuracy >= opts.AccuracyThreshold {
				break
			}
		}

		measured = append(measured, batch...)
		if len(measured) >= opts.ML.MinTrain {
			forest = e.trainLevelForest(measured)
		}
	}

	if i < len(order) {
		e.emit(PhaseChanged{Phase: CampaignPredicting, Points: len(order) - i})
	}
	// Predict whatever remains uninjected.
	for _, p := range order[i:] {
		level := 0
		if forest != nil {
			level = forest.Predict(p.FeatureVector())
		}
		predicted = append(predicted, Prediction{Point: p, Level: level})
	}
	return predicted, accuracy
}

// trainLevelForest fits the error-rate-level forest on measured results.
func (e *Engine) trainLevelForest(measured []PointResult) *ml.Forest {
	ds := BuildLevelDataset(measured, e.opts.Levels)
	return ml.TrainForest(ds, ml.ForestConfig{Seed: e.opts.Seed * 17})
}

// BuildLevelDataset converts measured points into an ML dataset labelled
// with quantised error-rate levels.
func BuildLevelDataset(measured []PointResult, levels int) *ml.Dataset {
	ds := &ml.Dataset{Features: FeatureNames, Classes: levels}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.FeatureVector())
		ds.Y = append(ds.Y, classify.RateLevel(pr.ErrorRate(), levels))
	}
	return ds
}

// BuildTypeDataset converts measured points into an ML dataset labelled
// with each point's majority outcome type (for the paper's error-type
// prediction, Fig. 12).
func BuildTypeDataset(measured []PointResult) *ml.Dataset {
	ds := &ml.Dataset{Features: FeatureNames, Classes: int(classify.NumOutcomes)}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.FeatureVector())
		ds.Y = append(ds.Y, int(pr.MajorityOutcome()))
	}
	return ds
}

// BuildExpandedLevelDataset uses the Table IV indicator-expanded features.
func BuildExpandedLevelDataset(measured []PointResult, levels int) *ml.Dataset {
	ds := &ml.Dataset{Features: ExpandedFeatureNames, Classes: levels}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.ExpandedFeatureVector())
		ds.Y = append(ds.Y, classify.RateLevel(pr.ErrorRate(), levels))
	}
	return ds
}
