// Command fastfit runs a FastFIT fault-injection and sensitivity-analysis
// campaign against one of the bundled workloads and prints the pruning
// accounting, the outcome distribution and (optionally) the feature
// correlations.
//
// Usage:
//
//	fastfit -app minimd -ranks 16 -trials 40
//	fastfit -app lu -no-ml -policy allparams -v
//	fastfit -app lu -checkpoint lu.ckpt          # survivable campaign
//	fastfit -app lu -checkpoint lu.ckpt -resume  # continue after Ctrl-C
//	fastfit -app lu -progress                    # live stats line on stderr
//	fastfit -app lu -events lu.events.jsonl      # JSONL event stream
//	fastfit -app is -topology ring -netplan link:1-2
//	fastfit -app is -ranks 16 -topology torus:4x4 -policy network
//
// Campaigns run under a supervisor: points are injected by a worker pool,
// every completed point is journalled to the -checkpoint file (when given),
// and Ctrl-C stops the campaign cleanly with a resumable summary. Points
// that repeatedly wedge the harness are quarantined and reported instead of
// aborting the campaign.
//
// The Table II environment variables (NUM_INJ, INV_ID, CALL_ID, RANK_ID,
// PARAM_ID) are honoured when -env-config is given: instead of a campaign,
// a single configured injection test is executed, matching the original
// tool's scripting interface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/fastfit/fastfit"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/cliconf"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/ml"
)

// errInterrupted marks a campaign stopped by SIGINT/SIGTERM; main exits
// with the conventional 130 so scripts can distinguish interruption from
// failure.
var errInterrupted = errors.New("interrupted")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errInterrupted) {
			fmt.Fprintln(os.Stderr, "fastfit: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "fastfit:", err)
		os.Exit(1)
	}
}

func run() error {
	camp := cliconf.Register(flag.CommandLine)
	appFlag := flag.Lookup("app") // fastfit alone also takes -app all (runAllApps)
	appFlag.Usage = appFlag.Usage[:len(appFlag.Usage)-1] + ", all)"
	obsFlags := cliconf.RegisterObserver(flag.CommandLine, "fastfit", true)
	var (
		corr       = flag.Bool("correlations", false, "print the Table IV feature correlations")
		advise     = flag.Bool("advise", false, "print per-site protection advice (paper §III-C criterion)")
		saveJSON   = flag.String("save", "", "write the campaign result to a JSON file")
		checkpoint = flag.String("checkpoint", "", "checkpoint journal (framed records: read with cut -c19- | jq); campaigns resume from a matching journal")
		resume     = flag.Bool("resume", false, "require -checkpoint to exist and resume it")
		workers    = flag.Int("workers", 0, "concurrent injection points (0 = derive from GOMAXPROCS)")
		retries    = flag.Int("retries", 0, "harness attempts per point before quarantine (0 = default 3)")
		pointTmo   = flag.Duration("point-timeout", 0, "per-point watchdog (0 = derive from -trials and run timeout)")
		envConfig  = flag.Bool("env-config", false, "run a single injection from Table II env vars instead of a campaign")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	observer, closeEvents, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer closeEvents()
	if camp.App == "all" {
		return runAllApps(ctx, camp, observer)
	}

	app, cfg, opts, err := camp.Build()
	if err != nil {
		return err
	}
	opts.Observer = observer

	engine := fastfit.New(app, cfg, opts)

	if *envConfig {
		return runEnvConfigured(engine)
	}

	supOpts := fastfit.SupervisorOptions{
		Checkpoint:   *checkpoint,
		Workers:      *workers,
		MaxAttempts:  *retries,
		PointTimeout: *pointTmo,
	}

	start := time.Now()
	if obsFlags.Verbose {
		fmt.Printf("profiling %s (%d ranks, scale %d, %d iters)...\n", camp.App, cfg.Ranks, cfg.Scale, cfg.Iters)
	}
	var sup *fastfit.SupervisedResult
	if *resume {
		sup, err = fastfit.ResumeCampaign(ctx, engine, supOpts)
	} else {
		sup, err = fastfit.NewSupervisor(engine, supOpts).Run(ctx)
	}
	if err != nil {
		return err
	}
	if sup.Cancelled {
		fmt.Fprintf(os.Stderr, "\ncampaign interrupted: %d/%d points done\n", len(sup.Measured), sup.AfterContext)
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "resume with: fastfit -app %s [same flags] -checkpoint %s -resume\n", camp.App, *checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "partial results discarded; rerun with -checkpoint to make campaigns resumable")
		}
		return errInterrupted
	}
	res := sup.CampaignResult

	fmt.Println(res.Summary())
	fmt.Printf("campaign wall-clock: %v\n", time.Since(start).Round(time.Millisecond))
	if sup.FromCheckpoint > 0 {
		fmt.Printf("resumed %d points from checkpoint %s\n", sup.FromCheckpoint, sup.Checkpoint)
	}
	if sup.HarnessRetries > 0 {
		fmt.Printf("harness retries: %d\n", sup.HarnessRetries)
	}
	if len(sup.Quarantined) > 0 {
		fmt.Printf("quarantined %d poison point(s):\n", len(sup.Quarantined))
		for _, q := range sup.Quarantined {
			fmt.Printf("  point %d (%s): %s after %d attempts\n", q.Index, q.Point.String(), q.Err, q.Attempts)
		}
	}
	fmt.Println()

	agg := fastfit.OutcomeBreakdown(res.Measured)
	if opts.Adaptive.Enabled && res.Injected > 0 {
		budget := res.Injected * opts.TrialsPerPoint
		fmt.Printf("adaptive budgets: ran %d of %d budgeted tests (%.1f%% saved)\n",
			agg.Total(), budget, 100*(1-float64(agg.Total())/float64(budget)))
	}
	fmt.Printf("outcome distribution over %d injection tests:\n", agg.Total())
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		fmt.Printf("  %-13s %6.2f%%  (%d)\n", o, 100*agg.Fraction(o), agg[o])
	}

	byColl := core.OutcomeByCollective(res.Measured)
	fmt.Println("\nerror rate per collective:")
	for _, t := range core.SortedCollTypes(byColl) {
		c := byColl[t]
		fmt.Printf("  %-18s %6.2f%% over %d tests\n", t, 100*c.ErrorRate(), c.Total())
	}

	if opts.ML.Pruning {
		fmt.Printf("\nML: injected %d points, predicted %d (verify accuracy %.0f%%)\n",
			res.Injected, res.PredictedN, 100*res.VerifyAccuracy)
	}

	if *corr {
		table := fastfit.CorrelationTable(res.Measured, opts.Levels)
		fmt.Println("\nfeature correlations (Eq. 1; 0.5 = no effect):")
		names := make([]string, 0, len(table))
		for n := range table {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-14s %.2f\n", n, table[n])
		}

		// The random forest's own view of which features drive sensitivity.
		ds := core.BuildLevelDataset(res.Measured, opts.Levels)
		forest := ml.TrainForest(ds, ml.ForestConfig{Seed: opts.Seed})
		fmt.Println("\nrandom-forest feature importance (mean Gini decrease):")
		for i, v := range forest.FeatureImportance() {
			fmt.Printf("  %-14s %.2f\n", core.FeatureNames[i], v)
		}
	}

	if *advise {
		fmt.Println("\nprotection advice (paper §III-C criterion):")
		fmt.Print(core.RenderAdvice(core.Advise(res.Measured, core.AdviceThresholds{})))
	}

	if *saveJSON != "" {
		if err := res.SaveJSON(*saveJSON); err != nil {
			return err
		}
		fmt.Printf("\ncampaign result saved to %s\n", *saveJSON)
	}
	return nil
}

// runEnvConfigured performs one injection described by the Table II
// environment variables against the profiled site list.
func runEnvConfigured(engine *fastfit.Engine) error {
	cfgEnv, err := fault.ParseConfig(os.Getenv)
	if err != nil {
		return err
	}
	prof, err := engine.Profile()
	if err != nil {
		return err
	}
	sites := prof.SitesOnRank(cfgEnv.RankID)
	refs := make([]fault.SiteRef, 0, len(sites))
	for _, s := range sites {
		refs = append(refs, fault.SiteRef{Site: s.PC, Type: s.Type})
	}
	rng := rand.New(rand.NewSource(1))
	faults, err := cfgEnv.Faults(refs, rng)
	if err != nil {
		return err
	}
	if len(faults) == 0 {
		fmt.Println("NUM_INJ is 0 or unset; nothing to inject")
		return nil
	}
	var counts classify.Counts
	for i, f := range faults {
		outcome, _ := engine.RunOnce(f)
		counts.Add(outcome)
		fmt.Printf("injection %d: %v -> %v\n", i+1, f, outcome)
	}
	fmt.Printf("error rate: %.2f%%\n", 100*counts.ErrorRate())
	return nil
}

// runAllApps executes the campaign the flags describe for every bundled
// workload and prints a Table III-style summary. Every workload's flags are
// resolved before the first campaign runs.
func runAllApps(ctx context.Context, camp *cliconf.Campaign, observer fastfit.Observer) error {
	var engines []*fastfit.Engine
	for _, name := range fastfit.AppNames() {
		camp.App = name
		app, cfg, opts, err := camp.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		opts.Observer = observer
		engines = append(engines, fastfit.New(app, cfg, opts))
	}
	fmt.Printf("%-10s %8s %10s %9s %9s %9s %9s\n",
		"app", "points", "injected", "semantic", "context", "ML", "total")
	for _, engine := range engines {
		if ctx.Err() != nil {
			return errInterrupted
		}
		name := engine.App().Name()
		sup, err := fastfit.NewSupervisor(engine, fastfit.SupervisorOptions{}).Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if sup.Cancelled {
			return errInterrupted
		}
		res := sup.CampaignResult
		fmt.Printf("%-10s %8d %10d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			name, res.TotalPoints, res.Injected,
			100*res.SemanticReduction, 100*res.ContextReduction,
			100*res.MLReduction, 100*res.TotalReduction)
	}
	return nil
}
