// Command ffprofile runs FastFIT's profiling phase against a bundled
// workload and prints the communication profile — the mpiP-style site
// table, call-stack diversity and rank-equivalence classes that the
// semantic- and context-driven pruning techniques consume.
//
// Per-trial timing and allocation numbers are bench/ffbench's
// (core.trial_fork_ms_p50, core.allocs_per_trial, ...; bench/README.md).
//
// Usage:
//
//	ffprofile -app lu -ranks 16
//	ffprofile -app minimd -points     (each point with its fault-space size)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/fastfit/fastfit"
	"github.com/fastfit/fastfit/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffprofile:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appName = flag.String("app", "minimd", "workload to profile ("+strings.Join(fastfit.AppNames(), ", ")+")")
		ranks   = flag.Int("ranks", 0, "number of MPI ranks (0 = app default)")
		scale   = flag.Int("scale", 0, "problem-size knob (0 = app default)")
		iters   = flag.Int("iters", 0, "outer iterations (0 = app default)")
		points  = flag.Bool("points", false, "also list the pruned injection points")
	)
	flag.Parse()

	app, err := fastfit.LookupApp(*appName)
	if err != nil {
		return err
	}
	cfg := app.DefaultConfig()
	if *ranks > 0 {
		cfg.Ranks = *ranks
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *iters > 0 {
		cfg.Iters = *iters
	}

	engine := fastfit.New(app, cfg, fastfit.DefaultOptions())
	prof, err := engine.Profile()
	if err != nil {
		return err
	}
	fmt.Print(prof.Report())

	if *points {
		pts, err := engine.Points()
		if err != nil {
			return err
		}
		sem, semRed := core.SemanticPrune(prof, pts)
		ctx, ctxRed := core.ContextPrune(sem)
		fmt.Printf("\ninjection points: %d total -> %d after semantic pruning (%.1f%%) -> %d after context pruning (%.1f%%)\n",
			len(pts), len(sem), 100*semRed, len(ctx), 100*ctxRed)
		for _, p := range ctx {
			fmt.Printf("  %s%s\n", p.String(), faultSpaceNote(engine, p))
		}
	}
	return nil
}

// faultSpaceNote renders a point's fault-space size — the distinct effective
// faults the policy can draw there — and flags a point with fewer of them
// than the campaign's per-point trial budget: at most that many of its
// trials execute, and the rest of the budget reuses their outcomes.
func faultSpaceNote(engine *core.Engine, p core.Point) string {
	size, ok := engine.FaultSpace(p)
	if !ok {
		return ""
	}
	if budget := engine.Options().TrialsPerPoint; budget > size {
		return fmt.Sprintf("  [%d faults: at most %d of %d trials execute]", size, size, budget)
	}
	return fmt.Sprintf("  [%d faults]", size)
}
