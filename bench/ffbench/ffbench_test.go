package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/core"
)

// Regenerate BENCHMARK.json from the declarations in this package with:
//
//	go test ./bench/ffbench -run TestBenchmarkJSON -update
var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the Go declarations")

const benchmarkJSON = "../../BENCHMARK.json"

// benchmarkFile is BENCHMARK.json in full.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func declaredBenchmark() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDecl{Name: w.name, Why: w.why})
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own declarations
// in step and inside the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	want := declaredBenchmark()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSON, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json drifted from the declarations in bench/ffbench; regenerate with\n  go test ./bench/ffbench -run TestBenchmarkJSON -update")
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range got.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range append(append([]metricDecl(nil), got.EndToEnd...), got.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range got.PerLayer {
		name("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, n := range exactRepeatMetrics {
		if !seen[n] {
			t.Errorf("exact-repeat metric %q is not declared", n)
		}
	}
	for _, w := range workloads {
		if len(screenedSeeds[w.name]) < seedsPerRun {
			t.Errorf("workload %s: seed pool of %d, want at least %d", w.name, len(screenedSeeds[w.name]), seedsPerRun)
		}
	}
}

func metricNames(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func smoke(t *testing.T, workload string, trace bool, corrupt func(*core.CampaignResult)) *report {
	t.Helper()
	rep, err := runWorkload(runConfig{workload: workload, seed: 1, smoke: true, trace: trace,
		scratch: t.TempDir(), commit: "test", corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, trace, err)
	}
	return rep
}

// TestSmokeRunsEmitDeclaredMetrics runs every workload at -smoke size,
// untraced and traced, and checks that each run reports exactly the metrics
// BENCHMARK.json declares for it, every one with its declared unit. Under
// -short or the race detector it keeps to one untraced workload.
func TestSmokeRunsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if (testing.Short() || raceEnabled) && (trace || w.driver != driverSerial) {
				continue
			}
			decls := endToEndMetrics
			if trace {
				decls = perLayerMetrics
			}
			rep := smoke(t, w.name, trace, nil)
			got := make([]string, 0, len(rep.Result.Metrics))
			for name := range rep.Result.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if want := metricNames(decls); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (traced %v) reported %v, declared %v", w.name, trace, got, want)
			}
			for _, d := range decls {
				if m := rep.Result.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
			if rep.Result.Attempted < 1 {
				t.Errorf("%s (traced %v): attempted %d campaigns", w.name, trace, rep.Result.Attempted)
			}
			// A failed campaign here would be the determinism flake ROADMAP
			// tracks, not a fault of the harness; it is shown, not asserted.
			for _, f := range rep.Detail.Failures {
				t.Logf("%s (traced %v): %s", w.name, trace, f)
			}
		}
	}
}

// TestCorruptedResultIsCounted damages every measured campaign's result and
// expects each to be counted as a failed operation — not a panic, not a
// pass.
func TestCorruptedResultIsCounted(t *testing.T) {
	rep := smoke(t, "lu32-serial", false, func(res *core.CampaignResult) {
		pr := &res.Measured[0]
		pr.Trials = pr.Trials[:len(pr.Trials)-1]
	})
	if rep.Result.Correct || rep.Result.Failed != rep.Result.Attempted || rep.Result.Attempted == 0 {
		t.Fatalf("corrupted campaigns: correct=%v failed=%d attempted=%d", rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted)
	}
	joined := strings.Join(rep.Detail.Failures, "\n")
	for _, want := range []string{"outcome counts total", "trials, budget", "differs from the seed's Workers:1 reference"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no %q among the failures:\n%s", want, joined)
		}
	}
}

// TestOneOffMismatchIsReRun pins the treatment of the simulator's known
// wall-clock flake: a result that differs from its reference in nothing but
// its bytes is re-run once — replaced and reported as a flake if the re-run
// matches, failed if the difference persists.
func TestOneOffMismatchIsReRun(t *testing.T) {
	calls := 0
	once := smoke(t, "lu32-serial", false, func(res *core.CampaignResult) {
		if calls++; calls == 1 {
			res.VerifyAccuracy = 0.5
		}
	})
	if !once.Result.Correct || once.Result.Failed != 0 || once.Detail.Flakes != 1 {
		t.Errorf("one-off mismatch: correct=%v failed=%d flakes=%d, want true, 0, 1", once.Result.Correct, once.Result.Failed, once.Detail.Flakes)
	}
	always := smoke(t, "lu32-serial", false, func(res *core.CampaignResult) { res.VerifyAccuracy = 0.5 })
	if always.Result.Correct || always.Result.Failed != always.Result.Attempted || always.Detail.Flakes != 0 {
		t.Errorf("persistent mismatch: correct=%v failed=%d of %d flakes=%d, want all failed and no flake",
			always.Result.Correct, always.Result.Failed, always.Result.Attempted, always.Detail.Flakes)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(vs); got != (8.25-2.75)/5.5 {
		t.Fatalf("quartileSpread = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, snapshots float64, failed int) string {
		var set runSet
		for _, w := range workloads {
			for i := 0; i < 4; i++ {
				r := report{Workload: w.name, Seed: int64(i), Result: result{Attempted: 10, Failed: failed, Metrics: map[string]metric{}}}
				for _, m := range endToEndMetrics {
					v := 100 + float64(i)
					if m.Name == "trials_per_s" {
						v *= scale
					}
					r.Result.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
				}
				set.Runs = append(set.Runs, r)
			}
			tr := report{Workload: w.name, Trace: true, Result: result{Attempted: 2, Metrics: map[string]metric{}}}
			for _, n := range exactRepeatMetrics {
				tr.Result.Metrics[n] = metric{Value: snapshots, Unit: "count"}
			}
			set.Runs = append(set.Runs, tr)
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 14, 0)
	for _, tc := range []struct {
		name      string
		other     string
		regressed bool
		mention   string
	}{
		{"same", write("same.json", 1, 14, 0), false, "No regression"},
		{"faster", write("faster.json", 1.5, 14, 0), false, "No regression"},
		{"slower", write("slower.json", 0.6, 14, 0), true, "REGRESSION"},
		{"count drifted", write("count.json", 1, 15, 0), true, "MISMATCH"},
		{"failures", write("failed.json", 1, 14, 1), true, "failed share raised"},
	} {
		var out bytes.Buffer
		regressed, err := compareRunSets(&out, base, tc.other, benchmarkJSON)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.mention) {
			t.Errorf("%s: regressed=%v, want %v with %q in:\n%s", tc.name, regressed, tc.regressed, tc.mention, out.String())
		}
	}
}
