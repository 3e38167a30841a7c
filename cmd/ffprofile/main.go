// Command ffprofile runs FastFIT's profiling phase against a bundled
// workload and prints the communication profile — the mpiP-style site
// table, call-stack diversity and rank-equivalence classes that the
// semantic- and context-driven pruning techniques consume.
//
// With -trials it additionally drives N injected trials through the
// engine hot path and reports per-trial wall time, memory churn and the
// fork-at-injection-site accounting, which is how the numbers in
// EXPERIMENTS.md were gathered; -nopool disables the buffer arena and
// -nofork disables snapshot forking for before/after comparison.
//
// Usage:
//
//	ffprofile -app lu -ranks 16
//	ffprofile -app minimd -points     (each point with its fault-space size)
//	ffprofile -app lu -ranks 32 -trials 200
//	ffprofile -app lu -ranks 32 -trials 200 -nopool -nofork
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/fastfit/fastfit"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffprofile:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appName = flag.String("app", "minimd", "workload to profile (is, ft, mg, lu, minimd)")
		ranks   = flag.Int("ranks", 0, "number of MPI ranks (0 = app default)")
		scale   = flag.Int("scale", 0, "problem-size knob (0 = app default)")
		iters   = flag.Int("iters", 0, "outer iterations (0 = app default)")
		points  = flag.Bool("points", false, "also list the pruned injection points")
		trials  = flag.Int("trials", 0, "run N injected trials and report ms/trial, allocs/trial, KB/trial")
		nopool  = flag.Bool("nopool", false, "disable the buffer arena (per-trial allocation baseline)")
		nofork  = flag.Bool("nofork", false, "disable fork-at-injection-site execution (full-replay baseline)")
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

	opts := fastfit.DefaultOptions()
	opts.DisablePooling = *nopool
	opts.Fork.Disable = *nofork
	engine := fastfit.New(app, cfg, opts)
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

	if *trials > 0 {
		if err := measureTrials(engine, *trials, *nopool); err != nil {
			return err
		}
	}
	return nil
}

// measureTrials drives n injected trials through the campaign hot path and
// reports per-trial wall time and heap churn from runtime.ReadMemStats
// deltas. Each trial rotates over the pruned injection points with a
// deterministic per-trial fault, matching what a campaign executes.
func measureTrials(engine *core.Engine, n int, nopool bool) error {
	pts, err := engine.Points()
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("no injection points to measure")
	}

	// One warm-up trial populates the pools so steady state is measured.
	warm := pts[0]
	engine.RunOnce(fault.RandomFault(rand.New(rand.NewSource(0)), warm.Rank, warm.Site, warm.Invocation, warm.Type))

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		p := pts[i%len(pts)]
		rng := rand.New(rand.NewSource(int64(i + 1)))
		engine.RunOnce(fault.RandomFault(rng, p.Rank, p.Site, p.Invocation, p.Type))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	mode := "pooled"
	if nopool {
		mode = "nopool"
	}
	st := engine.SnapshotStats()
	if st.Forked > 0 {
		mode += ", forked"
	} else {
		mode += ", full replay"
	}
	fmt.Printf("\ninjected trials: %d (%s)\n", n, mode)
	fmt.Printf("  %8.3f ms/trial\n", float64(elapsed.Nanoseconds())/float64(n)/1e6)
	fmt.Printf("  %8.0f allocs/trial\n", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	fmt.Printf("  %8.1f KB/trial\n", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1024)
	if st.Forked+st.Replayed > 0 {
		fmt.Printf("  forked %d / replayed %d trials (%d snapshots)\n", st.Forked, st.Replayed, st.Snapshots)
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
