// Custom app: wire your own MPI application into FastFIT.
//
// The workload here is a distributed 1-D heat-diffusion solver: each rank
// owns a strip of the rod, exchanges boundary cells with its neighbours,
// and agrees on a global temperature via MPI_Allreduce — with an
// error-handling Allreduce checking that energy stays finite. FastFIT then
// studies how the solver responds to faulty collectives.
//
//	go run ./examples/custom_app
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/fastfit/fastfit"
)

// heat is a user-defined workload implementing fastfit.App.
type heat struct{}

func (heat) Name() string { return "heat1d" }

func (heat) DefaultConfig() fastfit.Config {
	return fastfit.Config{Ranks: 8, Scale: 64, Iters: 10, Seed: 2024}
}

func (heat) Main(r *fastfit.Rank, cfg fastfit.Config) error {
	p := r.NumRanks()
	cells := cfg.Scale

	// Phases and error-handling annotations are how FastFIT learns the
	// application features it correlates with sensitivity.
	r.SetPhase(fastfit.PhaseInit)
	deck := r.BcastFloat64s([]float64{float64(cells), float64(cfg.Iters), 0.1}, 0, fastfit.CommWorld)
	n := int(deck[0])
	steps := int(deck[1])
	alpha := deck[2]
	r.Barrier(fastfit.CommWorld)

	r.SetPhase(fastfit.PhaseInput)
	u := make([]float64, cells) // static allocation, like a Fortran code
	for i := 0; i < n && i < len(u); i++ {
		x := float64(r.ID()*n+i) / float64(n*p)
		u[i] = math.Sin(math.Pi * x)
	}

	r.SetPhase(fastfit.PhaseCompute)
	left, right := r.ID()-1, r.ID()+1
	// Scratch kept across steps: RecvFloat64sInto decodes a halo message
	// into the buffer it is given, so the exchange allocates nothing.
	halo := make([]float64, 1)
	next := make([]float64, len(u))
	for s := 0; s < steps; s++ {
		r.Tick(n + 50)

		// Halo exchange with non-periodic boundaries.
		var lval, rval float64
		if left >= 0 {
			r.SendFloat64s(fastfit.CommWorld, left, 1, []float64{u[0]})
		}
		if right < p {
			r.SendFloat64s(fastfit.CommWorld, right, 2, []float64{u[n-1]})
			rval = r.RecvFloat64sInto(fastfit.CommWorld, right, 1, halo)[0]
		}
		if left >= 0 {
			lval = r.RecvFloat64sInto(fastfit.CommWorld, left, 2, halo)[0]
		}

		// Explicit Euler update; cells past n are written by no step and
		// stay 0 in both arrays.
		for i := 0; i < n; i++ {
			l, rr := lval, rval
			if i > 0 {
				l = u[i-1]
			}
			if i < n-1 {
				rr = u[i+1]
			}
			next[i] = u[i] + alpha*(l-2*u[i]+rr)
		}
		u, next = next, u

		// Global mean temperature: a diagnostic Allreduce.
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += u[i]
		}
		mean := r.AllreduceFloat64(sum, fastfit.OpSum, fastfit.CommWorld) / float64(n*p)
		_ = mean

		// Error handling: abort if energy stopped being finite anywhere.
		r.ErrCheck(func() {
			flag := int64(0)
			if math.IsNaN(sum) || math.IsInf(sum, 0) {
				flag = 1
			}
			if r.AllreduceInt64(flag, fastfit.OpLor, fastfit.CommWorld) != 0 {
				r.Abort("heat1d: non-finite energy")
			}
		})
	}

	r.SetPhase(fastfit.PhaseEnd)
	var total float64
	for i := 0; i < n; i++ {
		total += u[i]
	}
	global := r.ReduceFloat64s([]float64{total}, fastfit.OpSum, 0, fastfit.CommWorld)
	if r.ID() == 0 {
		// The "printed output" used for silent-data-corruption detection.
		r.ReportResult(math.Round(global[0]*1e6) / 1e6)
	}
	return nil
}

func main() {
	app := heat{}
	opts := fastfit.DefaultOptions()
	opts.TrialsPerPoint = 20
	opts.ML.Pruning = false // measure every pruned point for the report

	engine := fastfit.New(app, app.DefaultConfig(), opts)
	result, err := engine.RunCampaign()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(result.Summary())

	counts := fastfit.OutcomeBreakdown(result.Measured)
	fmt.Printf("\nhow heat1d responds to faulty collectives (%d tests):\n", counts.Total())
	for o := fastfit.Outcome(0); o < fastfit.NumOutcomes; o++ {
		fmt.Printf("  %-13s %6.2f%%\n", o, 100*counts.Fraction(o))
	}

	fmt.Println("\nfeature correlations with sensitivity (0.5 = no effect):")
	for _, name := range fastfit.ExpandedFeatureNames {
		fmt.Printf("  %-14s %.2f\n", name, fastfit.CorrelationTable(result.Measured, 4)[name])
	}
}
