package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// declarations is the part of BENCHMARK.json -compare reads.
type declarations struct {
	EndToEnd []metricDecl `json:"end_to_end"`
}

func loadRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// values collects one metric over a workload's untraced (or traced) runs.
func (s *runSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s *runSet) attempts(workload string) (attempted, failed int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	return attempted, failed
}

// compareRunSets prints, per workload and end-to-end metric, both sides'
// medians, how much worse side B is and the bound BENCHMARK.json allows,
// and reports whether B regressed: a median worse by more than its bound, an
// exact-repeat count that differs, or more failed campaigns. A pairing whose
// run-to-run spread exceeds the bound cannot show "no regression" and is
// marked unresolved — unless every run of B reads better than every run of A.
func compareRunSets(w io.Writer, pathA, pathB, benchmarkPath string) (regressed bool, err error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var decl declarations
	if err := json.Unmarshal(data, &decl); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}

	fmt.Fprintf(w, "A: %s  commit %s  %s  nproc %d\n", pathA, a.Host.Commit, a.Host.GoVersion, a.Host.NProc)
	fmt.Fprintf(w, "B: %s  commit %s  %s  nproc %d\n\n", pathB, b.Host.Commit, b.Host.GoVersion, b.Host.NProc)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.name)
		fmt.Fprintf(w, "  %-18s %12s %12s %9s %7s %9s %9s  %s\n", "metric", "A median", "B median", "B worse", "bound", "A spread", "B spread", "verdict")
		for _, m := range decl.EndToEnd {
			va, vb := a.values(wl.name, m.Name, false), b.values(wl.name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-18s missing on one side (%d and %d runs)\n", m.Name, len(va), len(vb))
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == higher {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case (sa > m.Bound || sb > m.Bound) && !allBetter(vb, va, m.Better):
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Fprintf(w, "  %-18s %12.4f %12.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		for _, name := range exactRepeatMetrics {
			va, vb := a.values(wl.name, name, true), b.values(wl.name, name, true)
			switch {
			case len(va) == 0 || len(vb) == 0:
				fmt.Fprintf(w, "  %-30s no traced run on one side\n", name)
			case va[0] != vb[0]:
				fmt.Fprintf(w, "  %-30s %.0f vs %.0f  MISMATCH (must repeat exactly)\n", name, va[0], vb[0])
				regressed = true
			default:
				fmt.Fprintf(w, "  %-30s %.0f = %.0f\n", name, va[0], vb[0])
			}
		}
		attA, failA := a.attempts(wl.name)
		attB, failB := b.attempts(wl.name)
		verdict := "ok"
		if float64(failB)*float64(attA) > float64(failA)*float64(attB) {
			verdict = "REGRESSION (failed share raised)"
			regressed = true
		}
		fmt.Fprintf(w, "  %-30s %d of %d vs %d of %d campaigns failed  %s\n\n", "failed_share", failA, attA, failB, attB, verdict)
	}
	if regressed {
		fmt.Fprintln(w, "B regressed against A.")
	} else {
		fmt.Fprintln(w, "No regression of B against A.")
	}
	return regressed, nil
}

// allBetter reports whether every value of xs reads better than every
// value of ys.
func allBetter(xs, ys []float64, better string) bool {
	for _, x := range xs {
		for _, y := range ys {
			if (better == lower && x >= y) || (better == higher && x <= y) {
				return false
			}
		}
	}
	return true
}
