// Command ffexp regenerates the tables and figures of the FastFIT paper's
// evaluation section (CLUSTER 2015, §V).
//
// Usage:
//
//	ffexp                       # list available experiments
//	ffexp -run fig9             # regenerate one experiment
//	ffexp -run all -scale paper # regenerate everything at paper scale
//	ffexp -run all -out results # write each report to results/<id>.txt
//	ffexp -run fig7 -progress   # live per-campaign stats on stderr
//	ffexp -run all -events ev.jsonl  # JSONL event stream of every campaign
//
// The quick scale (default) keeps every experiment's shape observable in
// seconds on a laptop; the paper scale matches the paper's setup (32
// ranks, 100 trials per injection point) and runs for considerably longer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/fastfit/fastfit/internal/cliconf"
	"github.com/fastfit/fastfit/internal/experiments"
)

// errInterrupted marks a run stopped by SIGINT/SIGTERM; main exits with
// the conventional 130 so scripts can tell interruption from failure.
var errInterrupted = errors.New("interrupted")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errInterrupted) {
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ffexp:", err)
		os.Exit(1)
	}
}

func run() error {
	obsFlags := cliconf.RegisterObserver(flag.CommandLine, "ffexp", false)
	var (
		runID      = flag.String("run", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		scale      = flag.String("scale", "quick", "experiment scale: quick or paper")
		trials     = flag.Int("trials", 0, "override trials per point (0 = scale default)")
		ranks      = flag.Int("ranks", 0, "override rank count (0 = scale default)")
		seed       = flag.Int64("seed", 0, "override seed (0 = scale default)")
		fig3Inv    = flag.Int("fig3-inv", 0, "override fig3 same-stack invocations (0 = scale default)")
		fig3Tr     = flag.Int("fig3-trials", 0, "override fig3 trials per invocation (0 = scale default)")
		adaptive   = flag.Bool("adaptive", false, "use adaptive trial budgets (sequential early stopping) for every campaign")
		confidence = flag.Float64("confidence", 0, "settling-rule confidence for adaptive budgets (0 = scale default: 0.95 quick, 0.999 paper)")
		outDir     = flag.String("out", "", "write each report to <out>/<id>.txt instead of stdout")
		csvOut     = flag.Bool("csv", false, "with -out: also write <out>/<id>.csv with the data series")
		quiet      = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	if *runID == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("\nuse -run <id> or -run all")
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (quick or paper)", *scale)
	}
	if *trials > 0 {
		sc.TrialsPerPoint = *trials
	}
	if *ranks > 0 {
		sc.Ranks = *ranks
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *fig3Inv > 0 {
		sc.Fig3Invocations = *fig3Inv
	}
	if *fig3Tr > 0 {
		sc.Fig3Trials = *fig3Tr
	}
	if *adaptive {
		sc.Adaptive = true
	}
	if *confidence > 0 {
		sc.Confidence = *confidence
	}

	store := experiments.NewStore(sc)
	if !*quiet {
		store.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[ffexp] "+format+"\n", args...)
		}
	}

	observer, closeEvents, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer closeEvents()
	store.Observer = observer

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for n, id := range ids {
		// Checkpoint at experiment granularity: on Ctrl-C, report what
		// completed and exactly how to resume the remainder.
		if ctx.Err() != nil {
			remaining := strings.Join(ids[n:], ",")
			fmt.Fprintf(os.Stderr, "ffexp: interrupted after %d/%d experiments\n", n, len(ids))
			fmt.Fprintf(os.Stderr, "resume the rest with: ffexp -run %s [same flags]\n", remaining)
			return errInterrupted
		}
		res, err := experiments.Run(id, store)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		report := render(res)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			if *csvOut {
				csvPath := filepath.Join(*outDir, id+".csv")
				f, err := os.Create(csvPath)
				if err != nil {
					return err
				}
				if err := res.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", csvPath)
			}
		} else {
			fmt.Print(report)
			fmt.Println()
		}
	}
	return nil
}

func render(r *experiments.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n\n%s", r.ID, r.Title, r.Text)
	if len(r.Notes) > 0 {
		sb.WriteString("\nnotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "  - %s\n", n)
		}
	}
	return sb.String()
}
