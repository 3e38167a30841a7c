// Quickstart: run a complete FastFIT campaign against the bundled NAS IS
// kernel and print the pruning accounting and sensitivity profile.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/fastfit/fastfit"
)

func main() {
	// Pick a bundled workload. The miniature NPB IS kernel sorts integers
	// with an Allreduce + Alltoall + Alltoallv skeleton.
	app, err := fastfit.LookupApp("is")
	if err != nil {
		log.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 8 // keep the demo snappy

	// The paper's defaults: all three pruning techniques, 65% accuracy
	// threshold. Only the trial count is reduced for the demo.
	opts := fastfit.DefaultOptions()
	opts.TrialsPerPoint = 20
	opts.Seed = 42

	// Observe the campaign live: StreamStats folds the typed event stream
	// into running statistics (outcome distribution, progress, ETA) while
	// the campaign executes — no waiting for the final result.
	stats := fastfit.NewStreamStats()
	opts.Observer = fastfit.MultiObserver(stats, fastfit.ObserverFunc(func(ev fastfit.Event) {
		switch ev := ev.(type) {
		case fastfit.PointCompleted:
			sn := stats.Snapshot()
			fmt.Printf("  [%d/%d] %s -> running error rate %.1f%%\n",
				ev.Completed, ev.Total, ev.Result.Point.SiteName, 100*sn.ErrorRate)
		case fastfit.BatchVerified:
			fmt.Printf("  model verified at %.0f%% accuracy (threshold %.0f%%)\n",
				100*ev.Accuracy, 100*ev.Threshold)
		}
	}))

	engine := fastfit.New(app, cfg, opts)
	result, err := engine.RunCampaign()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== pruning accounting (paper Table III row) ==")
	fmt.Println(result.Summary())

	fmt.Println("\n== application sensitivity (paper Table I classes) ==")
	counts := fastfit.OutcomeBreakdown(result.Measured)
	for o := fastfit.Outcome(0); o < fastfit.NumOutcomes; o++ {
		fmt.Printf("  %-13s %6.2f%%\n", o, 100*counts.Fraction(o))
	}
	fmt.Printf("\noverall error rate: %.1f%% across %d injection tests\n",
		100*counts.ErrorRate(), counts.Total())

	if result.PredictedN > 0 {
		fmt.Printf("the model predicted %d points without injecting them\n", result.PredictedN)
	}
}
