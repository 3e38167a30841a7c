package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/ml"
)

// Fig4 regenerates an example decision tree (paper Fig. 4) from the forest
// trained on the LAMMPS stand-in's measured sensitivities.
func Fig4(st *Store) (*Result, error) {
	r := newResult("fig4", "Fig. 4: An example decision tree")
	c, err := st.Campaign("minimd")
	if err != nil {
		return nil, err
	}
	ds := core.BuildLevelDataset(c.Measured, 4)
	forest := ml.TrainForest(ds, ml.ForestConfig{Trees: 10, MaxDepth: 4, Seed: st.Scale.Seed})
	classNames := []string{"low", "medium-low", "medium-high", "high"}
	r.Text = forest.ExampleTree(0, classNames)
	r.Labels["classes"] = classNames
	r.Labels["features"] = core.FeatureNames
	r.Notes = append(r.Notes,
		"Leaf nodes are the four application-sensitivity levels; internal nodes test the six application features (Type, Phase, ErrHal, nInv, StackDep, nDiffStack).")
	return r, nil
}

// Fig5 renders the FastFIT architecture (paper Fig. 5): the components and
// their interaction during a profiling and fault-injection campaign.
func Fig5(st *Store) (*Result, error) {
	r := newResult("fig5", "Fig. 5: FastFIT components and their interaction")
	r.Text = `  Profiling Phase                  Injection Phase               Learning Phase
 +--------------------+        +---------------------+        +-----------------+
 | Communication      |        | Config Generation   |        | Random Forest   |
 | Profile (mpiP role)|        |  (Table II env vars)|        |  model training |
 | Call Graph Profile |  --->  | Fault Injection     |  --->  |  + verification |
 | Call Stack Profile |        |  (bit flips in      |        |  vs threshold   |
 | -> semantic prune  |        |   collective args)  |        +--------+--------+
 | -> context prune   |        +----------^----------+                 |
 +--------------------+                   |   feedback: inject more    |
                                          +----------------------------+
                                    when accuracy >= threshold:
                                    predict untested points instead
`
	r.Notes = append(r.Notes,
		"Implemented by internal/profile (profiling), internal/fault (config generation + injection), internal/ml + internal/core (the Supervisor's learning loop).")
	return r, nil
}

// Fig6 regenerates the accuracy-threshold / reduction trade-off (paper
// Fig. 6): sweep the prediction-accuracy threshold and measure how many
// fault injection points the ML technique eliminates. One physical
// campaign is replayed under every threshold.
func Fig6(st *Store) (*Result, error) {
	r := newResult("fig6", "Fig. 6: Prediction accuracy threshold vs reduction of fault injection points")
	c, err := st.Campaign("minimd")
	if err != nil {
		return nil, err
	}
	// Answer every injection from the measured results, by point identity;
	// the learn loop itself runs for real under each threshold.
	type pkey struct {
		rank int
		site uintptr
		inv  int
	}
	cache := map[pkey]core.PointResult{}
	for _, pr := range c.Measured {
		cache[pkey{pr.Point.Rank, pr.Point.Site, pr.Point.Invocation}] = pr
	}
	replay := core.SupervisorOptions{Workers: 1, MaxAttempts: 1,
		Inject: func(_ context.Context, p core.Point, _, _ int) (core.PointResult, error) {
			pr, ok := cache[pkey{p.Rank, p.Site, p.Invocation}]
			if !ok {
				return pr, fmt.Errorf("fig6: the measured campaign has no %v", &p)
			}
			return pr, nil
		}}

	app, cfg, err := st.AppConfig("minimd")
	if err != nil {
		return nil, err
	}
	var thresholds, reductions []float64
	var rows [][]string
	for th := 0.45; th <= 0.751; th += 0.05 {
		opts := st.Options()
		opts.AccuracyThreshold = th
		opts.Adaptive.Enabled = false // the replayed results are final: nothing to refine
		res, err := core.NewSupervisor(core.New(app, cfg, opts), replay).Run(context.Background())
		if err != nil {
			return nil, err
		}
		if len(res.Quarantined) > 0 {
			return nil, errors.New(res.Quarantined[0].Err)
		}
		thresholds = append(thresholds, th)
		reductions = append(reductions, res.MLReduction)
		rows = append(rows, []string{pct(th), pct(res.MLReduction), bar(res.MLReduction, 30)})
	}
	r.Series["thresholds"] = thresholds
	r.Series["reductions"] = reductions
	r.Text = table([]string{"accuracy threshold", "points eliminated", ""}, rows)
	r.Notes = append(r.Notes,
		"Paper shape: reduction falls as the threshold rises; best case (45%) eliminates over 80% of points; the paper picks 65% as the balance.")
	return r, nil
}

// splitEval trains a forest on a random half of the dataset and evaluates
// per-class recall on the other half, averaged over five random divisions
// (the paper's §V-D protocol).
func splitEval(ds *ml.Dataset, seed int64) (recall []float64, support []int) {
	recall = make([]float64, ds.Classes)
	counts := make([]int, ds.Classes)
	support = make([]int, ds.Classes)
	for rep := 0; rep < 5; rep++ {
		rng := rand.New(rand.NewSource(seed + int64(rep)*7919))
		idx := rng.Perm(ds.Len())
		half := ds.Len() / 2
		if half == 0 {
			half = 1
		}
		train := ds.Subset(idx[:half])
		test := ds.Subset(idx[half:])
		forest := ml.TrainForest(train, ml.ForestConfig{Seed: seed + int64(rep)})
		rc, sup := forest.PerClassRecall(test)
		for c := 0; c < ds.Classes; c++ {
			if rc[c] >= 0 {
				recall[c] += rc[c]
				counts[c]++
			}
			support[c] += sup[c]
		}
	}
	for c := range recall {
		if counts[c] > 0 {
			recall[c] /= float64(counts[c])
		} else {
			recall[c] = -1
		}
	}
	return recall, support
}

// Fig12 regenerates the error-type prediction accuracy (paper Fig. 12):
// per-class recall of the forest predicting each point's dominant
// response type across the NPB and LAMMPS stand-in campaigns.
func Fig12(st *Store) (*Result, error) {
	r := newResult("fig12", "Fig. 12: Error type prediction accuracy")
	measured, err := st.MeasuredAcross(AllApps)
	if err != nil {
		return nil, err
	}
	ds := core.BuildTypeDataset(measured)
	recall, support := splitEval(ds, st.Scale.Seed*131)

	var rows [][]string
	var labels []string
	var vals []float64
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		if support[o] == 0 {
			continue
		}
		cell := "n/a"
		v := recall[o]
		if v >= 0 {
			cell = pct(v)
		}
		rows = append(rows, []string{o.String(), cell, fmt.Sprint(support[o])})
		labels = append(labels, o.String())
		vals = append(vals, v)
	}
	r.Series["recall"] = vals
	r.Labels["classes"] = labels
	r.Text = table([]string{"error type", "prediction accuracy", "support"}, rows)
	r.Notes = append(r.Notes,
		"Paper: SUCCESS 86%, APP_DETECTED 80%, SEG_FAULT 47%, WRONG_ANS 75% — SEG_FAULT correlates weakly with the chosen features and predicts worst.")
	return r, nil
}

// Fig13 regenerates the error-rate-level prediction accuracy (paper
// Fig. 13) for 2 and 3 evenly divided levels.
func Fig13(st *Store) (*Result, error) {
	r := newResult("fig13", "Fig. 13: Error rate level prediction accuracy")
	measured, err := st.MeasuredAcross(AllApps)
	if err != nil {
		return nil, err
	}

	levelNames := map[int][]string{
		2: {"low", "high"},
		3: {"low", "med", "high"},
	}
	var text string
	for _, levels := range []int{2, 3} {
		ds := core.BuildLevelDataset(measured, levels)
		recall, support := splitEval(ds, st.Scale.Seed*137+int64(levels))
		var rows [][]string
		vals := make([]float64, 0, levels)
		for l := 0; l < levels; l++ {
			cell := "n/a"
			if recall[l] >= 0 {
				cell = pct(recall[l])
			}
			rows = append(rows, []string{levelNames[levels][l], cell, fmt.Sprint(support[l])})
			vals = append(vals, recall[l])
		}
		r.Series[fmt.Sprintf("levels%d", levels)] = vals
		text += fmt.Sprintf("(%d levels)\n%s\n", levels, table([]string{"level", "prediction accuracy", "support"}, rows))
	}
	r.Labels["levels2"] = levelNames[2]
	r.Labels["levels3"] = levelNames[3]
	r.Text = text
	r.Notes = append(r.Notes,
		"Paper: with 2 levels the model classifies >80% of points correctly; with 3 levels it predicts >76% of low-sensitivity and >66% of high-sensitivity points.")
	return r, nil
}
