// Pruning trade-off: reproduce the paper's Fig. 6 — how the ML prediction-
// accuracy threshold trades against the number of fault-injection points
// the model eliminates. One physical campaign is measured, then the learn
// loop runs under a sweep of thresholds with every injection answered from
// those measurements (SupervisorOptions.Inject).
//
//	go run ./examples/pruning_tradeoff
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/fastfit/fastfit"
)

func main() {
	app, err := fastfit.LookupApp("minimd")
	if err != nil {
		log.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 8

	// Measure every pruned point once.
	base := fastfit.DefaultOptions()
	base.TrialsPerPoint = 20
	base.ML.Pruning = false
	engine := fastfit.New(app, cfg, base)
	measured, err := engine.RunCampaign()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d points (%d tests each)\n\n", measured.Injected, base.TrialsPerPoint)

	// Answer every later injection from the measured results.
	type key struct {
		rank int
		site uintptr
		inv  int
	}
	cache := map[key]fastfit.PointResult{}
	for _, pr := range measured.Measured {
		cache[key{pr.Point.Rank, pr.Point.Site, pr.Point.Invocation}] = pr
	}
	replay := fastfit.SupervisorOptions{Workers: 1, MaxAttempts: 1,
		Inject: func(_ context.Context, p fastfit.Point, _, _ int) (fastfit.PointResult, error) {
			pr, ok := cache[key{p.Rank, p.Site, p.Invocation}]
			if !ok {
				return pr, fmt.Errorf("no measurement for %v", &p)
			}
			return pr, nil
		}}

	fmt.Println("accuracy threshold vs points eliminated (paper Fig. 6):")
	for th := 0.45; th <= 0.751; th += 0.05 {
		opts := base
		opts.ML.Pruning = true
		opts.AccuracyThreshold = th
		res, err := fastfit.NewSupervisor(fastfit.New(app, cfg, opts), replay).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Quarantined) > 0 {
			log.Fatal(res.Quarantined[0].Err)
		}
		bars := int(res.MLReduction * 40)
		fmt.Printf("  %2.0f%%  ->  %5.1f%% eliminated  %s\n",
			100*th, 100*res.MLReduction, strings.Repeat("#", bars))
	}
	fmt.Println("\nthe paper picks 65% as the balance between model quality and savings")
}
