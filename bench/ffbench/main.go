// Command ffbench is the repository's benchmark: a closed loop of whole
// fault-injection campaigns on fresh engines, checked against their
// Workers:1 supervised references, with every metric printed by name and
// unit. bench/README.md explains the workloads and the metrics;
// BENCHMARK.json at the repository root declares them.
//
//	go run ./bench/ffbench -workload lu32-serial -seed 1            # one untraced run
//	go run ./bench/ffbench -workload lu32-serial -seed 1 -trace 1   # per-layer metrics
//	go run ./bench/ffbench -all -out run.json                       # every workload
//	go run ./bench/ffbench -compare A.json B.json                   # two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the run's campaign seeds derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one campaign at 8 ranks and 2 trials per point (what the tier-1 test runs)")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory under which the run's scratch root (journals, WAL stores, sense store) is created and removed")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans, their self times and the reconciliation to this file at exit; with -all: the directory that receives trace-<workload>.json")
	flag.StringVar(&cfg.commit, "commit", "", "commit to record in the host block (default: git describe)")
	reportPath := flag.String("report", "", "also write the run's full report (host, counts, metrics) to this file")
	all := flag.Bool("all", false, "run every workload, -runs untraced seeds and one traced run each, one process per run")
	runs := flag.Int("runs", 10, "with -all: untraced runs per workload, on seeds -seed, -seed+1, ...")
	out := flag.String("out", "", "with -all: file the set of runs is written to")
	compare := flag.Bool("compare", false, "compare two -all outputs given as arguments; exit 1 on a regression")
	screenN := flag.Int("screen", 0, "maintenance: print a pool of this many spin-free seeds for -workload, for seeds.go")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "with -compare: the declaration file the bounds are read from")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files, got %d arguments", flag.NArg())
			break
		}
		var regressed bool
		regressed, err = compareRunSets(os.Stdout, flag.Arg(0), flag.Arg(1), *benchmark)
		if err == nil && regressed {
			os.Exit(1)
		}
	case *all:
		err = runAll(cfg, *runs, *out, cfg.traceOut)
	case *screenN > 0:
		var w *workload
		if w, err = lookupWorkload(cfg.workload); err == nil {
			err = screen(os.Stdout, w, cfg.scratch, *screenN)
		}
	default:
		err = runOne(cfg, *reportPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne performs one run, describes it on standard error and prints the
// result object as the last line of standard output.
func runOne(cfg runConfig, reportPath string) error {
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	describe(os.Stderr, rep)
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// describe prints a run for a person: the host, the counts behind the
// metrics, then every metric by name with its unit.
func describe(w io.Writer, rep *report) {
	h, d := rep.Host, rep.Detail
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", rep.Workload, rep.Seed, rep.Trace)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s %s/%s  load1 %.2f  commit %s  scratch on %s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch, h.LoadAvg1, h.Commit, h.ScratchFS)
	fmt.Fprintf(w, "campaign seeds %v; set-up took %.2f s in all\n", d.CampaignSeeds, d.SetupTotalS)
	fmt.Fprintf(w, "%d campaigns attempted, %d failed; %d trials; %d trials over %d points per campaign\n",
		rep.Result.Attempted, rep.Result.Failed, d.Trials, d.CampaignTrials, d.CampaignPoints)
	if d.Flakes > 0 {
		fmt.Fprintf(w, "FLAKE: %d campaign(s) differed from their reference once and matched it when re-run\n", d.Flakes)
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, n := range d.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		line := fmt.Sprintf("  %-32s %14.4f %s", name, m.Value, m.Unit)
		if n, ok := d.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}
