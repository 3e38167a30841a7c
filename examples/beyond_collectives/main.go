// Beyond collectives: the paper's conclusion proposes applying FastFIT's
// techniques "to other programming elements of an HPC application". This
// example exercises that extension: fault injection into point-to-point
// operations (the halo exchanges and pipelines the collectives coordinate),
// with the same context-driven pruning.
//
//	go run ./examples/beyond_collectives
package main

import (
	"fmt"
	"log"

	"github.com/fastfit/fastfit"
	"github.com/fastfit/fastfit/internal/core"
)

func main() {
	// LU's wavefront sweeps pipeline through Send/Recv — a rich p2p space.
	app, err := fastfit.LookupApp("lu")
	if err != nil {
		log.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 8
	cfg.Scale = 32

	opts := fastfit.DefaultOptions()
	opts.TrialsPerPoint = 15
	engine := fastfit.New(app, cfg, opts)

	points, err := engine.P2PPoints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point-to-point injection space: %d points\n", len(points))

	pruned, reduction := core.ContextPrune(points)
	fmt.Printf("after context-driven pruning:   %d points (%.1f%% eliminated)\n\n",
		len(pruned), 100*reduction)

	fmt.Println("per-site sensitivity (15 random faults each):")
	type row struct {
		point  fastfit.P2PPoint
		result fastfit.P2PPointResult
	}
	var rows []row
	for i, p := range pruned {
		if p.Rank > 2 { // a few representative ranks keep the demo fast
			continue
		}
		pr := engine.InjectP2PPoint(p, i, opts.TrialsPerPoint)
		rows = append(rows, row{p, pr})
	}
	for _, r := range rows {
		fmt.Printf("  %-55s err rate %5.1f%%  ", r.point.String(), 100*r.result.ErrorRate())
		for o := fastfit.Outcome(0); o < fastfit.NumOutcomes; o++ {
			if r.result.Counts[o] > 0 {
				fmt.Printf("%v:%d ", o, r.result.Counts[o])
			}
		}
		fmt.Println()
	}
	fmt.Println("\nnote: tag/peer faults derail the wavefront pipeline (deadlocks and")
	fmt.Println("MPI errors); data faults corrupt boundary rows and surface as wrong")
	fmt.Println("answers or are damped by the SSOR iteration.")
}
