package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/fastfit/fastfit/internal/core"
)

// runConfig is one benchmark run: one workload, one seed, one process.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured window
	trace    bool    // traced run: per-layer metrics instead of end-to-end ones
	smoke    bool    // one tiny campaign, for the tier-1 test
	scratch  string  // directory the run's scratch root is created under
	traceOut string  // where a traced run writes its spans ("" = nowhere)
	commit   string  // recorded in the host block

	corrupt func(*core.CampaignResult) // test seam, see runner.corrupt
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo records the box a run was measured on.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	LoadAvg1   float64 `json:"loadAvg1"`
	Commit     string  `json:"commit"`
	// ScratchFS is the filesystem type of the scratch root: every number
	// that includes file I/O (checkpoint journals, WAL, sense store) was
	// measured on it and says nothing about another disk.
	ScratchFS string `json:"scratchFs"`
	// Undersized marks a box with fewer cores than the pinned worker count;
	// its numbers are not comparable with the committed baseline.
	Undersized bool `json:"undersized,omitempty"`
}

// detail is what a run reports beside its metrics: the counts and bases a
// reader needs to interpret them.
type detail struct {
	CampaignSeeds []int64 `json:"campaignSeeds"`
	SetupTotalS   float64 `json:"setupTotalS"`
	Trials        int     `json:"trials"` // in the campaigns that passed their checks
	// Flakes counts campaigns whose result differed from the reference once
	// and matched it when re-run; they are replaced, not counted as failed.
	Flakes         int            `json:"flakes"`
	CampaignTrials int            `json:"trialsPerCampaign"` // first seed's campaign; repeats exactly
	CampaignPoints int            `json:"pointsPerCampaign"` // first seed's campaign; repeats exactly
	CampaignS      []float64      `json:"campaignS"`         // each measured campaign's wall time, in loop order
	Samples        map[string]int `json:"samples,omitempty"` // sample count behind a metric
	Failures       []string       `json:"failures,omitempty"`
	Notes          []string       `json:"notes,omitempty"`
}

// report is one run in full: what -report writes and -all collects.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Smoke    bool     `json:"smoke,omitempty"`
	Seconds  float64  `json:"seconds"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
	Detail   detail   `json:"detail"`
}

const (
	// seedsPerRun distinct campaign seeds drive one run, so each recurs
	// several times within the window and every recurrence must reproduce
	// the same bytes.
	seedsPerRun = 3
)

func collectHost(scratch, commit string) hostInfo {
	if commit == "" {
		commit = "unknown"
		if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		LoadAvg1:   loadAverage1(),
		Commit:     commit,
		ScratchFS:  fsType(scratch),
		Undersized: runtime.NumCPU() < pinnedWorkers,
	}
}

// window is one closed-loop stretch of measured campaigns.
type window struct {
	samples []sample
	flakes  int           // campaigns re-run after a one-off result mismatch; not in samples
	cpu     time.Duration // process user+sys CPU over the stretch
	allocs  uint64        // heap objects allocated over the stretch
	bytes   uint64        // heap bytes allocated over the stretch
}

// campaignSeconds lists the wall times of the campaigns that passed every
// check; only those feed the metrics.
func (w *window) campaignSeconds() []float64 {
	var out []float64
	for _, s := range w.samples {
		if len(s.failures) == 0 {
			out = append(out, s.wall.Seconds())
		}
	}
	return out
}

func (w *window) failed() int { return len(w.samples) - len(w.campaignSeconds()) }

func (w *window) trials() int {
	n := 0
	for _, s := range w.samples {
		if len(s.failures) == 0 {
			n += s.trials
		}
	}
	return n
}

// trialsPerS is injected trials over the summed wall time of the campaigns
// that ran them.
func (w *window) trialsPerS() float64 {
	wall := 0.0
	for _, s := range w.campaignSeconds() {
		wall += s
	}
	if wall == 0 {
		return 0
	}
	return float64(w.trials()) / wall
}

// loop runs the closed loop: one campaign at a time from this one process,
// campaign i on the seed of reference i mod 3 and checked against it,
// starting campaigns until d has elapsed (always at least one). tr traces
// the campaigns when non-nil.
func (r *runner) loop(refs []sample, d time.Duration, tr *tracer) (window, error) {
	var w window
	var before, after runtime.MemStats
	u0, err := processUsage()
	if err != nil {
		return w, err
	}
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	id := 0
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		ref := &refs[i%len(refs)]
		id++
		s := r.campaign(id, ref, tr)
		if s.mismatch && len(s.failures) == 1 {
			// The simulator's deadlock verdict still has a wall-clock
			// fallback (ROADMAP's first open item): on an oversubscribed box
			// it can call a healthy run INF_LOOP, about once in 2,000
			// campaigns here. One re-run tells that apart from a result that
			// is wrong every time: if it matches the reference, the first
			// attempt is reported as a flake and replaced; if not, it stands
			// as failed.
			id++
			if again := r.campaign(id, ref, tr); len(again.failures) == 0 {
				w.flakes++
				s = again
			}
		}
		w.samples = append(w.samples, s)
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		w.allocs, w.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	u1, err := processUsage()
	if err != nil {
		return w, err
	}
	w.cpu = u1.cpu - u0.cpu
	return w, nil
}

// setUp produces the run's references: the Workers:1 supervised campaign, on
// a fresh engine, of each of the run's campaign seeds — consecutive entries of
// the workload's screened pool, starting where the run's -seed points. The
// references also fill the process-level pools and the fork snapshot cache,
// so the measured window starts warm.
func (r *runner) setUp(runSeed int64, want int) ([]sample, error) {
	pool := screenedSeeds[r.w.name]
	n := int64(len(pool))
	offset := ((runSeed%n)*int64(want)%n + n) % n
	var refs []sample
	for j := int64(0); j < int64(want); j++ {
		s := r.reference(pool[(offset+j)%n])
		if len(s.failures) > 0 {
			return nil, fmt.Errorf("reference campaign on seed %d: %s", s.seed, strings.Join(s.failures, "; "))
		}
		refs = append(refs, s)
	}
	return refs, nil
}

// screen prints, as a Go literal for seeds.go, the first `want` seeds from
// 1 upwards whose reference campaign on w has the workload's recorded shape
// and contains no heavy trial.
func screen(out io.Writer, w *workload, scratch string, want int) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, "ffbench-screen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &runner{w: w, tmp: tmp}
	fmt.Fprintf(out, "\t%q: {", w.name)
	for seed, kept := int64(1), 0; kept < want; seed++ {
		s := r.reference(seed)
		if s.result != nil && s.points != w.wantMeasured() {
			continue
		}
		if len(s.failures) > 0 {
			return fmt.Errorf("reference campaign on seed %d: %s", seed, strings.Join(s.failures, "; "))
		}
		if heavyTrials(s.eng, s.result) > 0 {
			continue
		}
		if kept > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprint(out, seed)
		kept++
	}
	fmt.Fprintln(out, "},")
	return nil
}

// runWorkload performs one benchmark run and returns its report.
func runWorkload(cfg runConfig) (*report, error) {
	full, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	w := full.sized(cfg.smoke)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "ffbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rep := &report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke, Seconds: cfg.seconds,
		Host: collectHost(tmp, cfg.commit)}
	if rep.Host.Undersized {
		fmt.Fprintf(os.Stderr, "ffbench: warning: %d CPU(s), fewer than the %d pinned workers; numbers are not comparable with the baseline\n",
			rep.Host.NProc, pinnedWorkers)
	}

	r := &runner{w: w, tmp: tmp, corrupt: cfg.corrupt}
	nSeeds := seedsPerRun
	if cfg.smoke {
		nSeeds = 1
	}
	setupStart := time.Now()
	refs, err := r.setUp(cfg.seed, nSeeds)
	if err != nil {
		return nil, err
	}
	rep.Detail = detail{
		SetupTotalS:    time.Since(setupStart).Seconds(),
		CampaignTrials: refs[0].trials,
		CampaignPoints: refs[0].points,
		Samples:        map[string]int{},
	}
	for _, ref := range refs {
		rep.Detail.CampaignSeeds = append(rep.Detail.CampaignSeeds, ref.seed)
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = r.traced(cfg, rep, refs, d)
	} else {
		err = r.endToEnd(rep, refs, d)
	}
	if err != nil {
		return nil, err
	}
	rep.Result.Correct = rep.Result.Failed == 0
	return rep, nil
}

// account folds a window's campaigns into the report's attempt and failure
// counts.
func (rep *report) account(w *window) {
	rep.Result.Attempted += len(w.samples)
	rep.Result.Failed += w.failed()
	rep.Detail.Trials += w.trials()
	rep.Detail.Flakes += w.flakes
	for _, s := range w.samples {
		rep.Detail.CampaignS = append(rep.Detail.CampaignS, s.wall.Seconds())
		for _, f := range s.failures {
			rep.Detail.Failures = append(rep.Detail.Failures, fmt.Sprintf("seed %d: %s", s.seed, f))
		}
	}
}

// endToEnd is the untraced run: the closed loop for the whole window, then
// the end-to-end metrics.
func (r *runner) endToEnd(rep *report, refs []sample, d time.Duration) error {
	w, err := r.loop(refs, d, nil)
	if err != nil {
		return err
	}
	rep.account(&w)
	u, err := processUsage()
	if err != nil {
		return err
	}
	cpuPerK := 0.0
	if n := w.trials(); n > 0 {
		cpuPerK = w.cpu.Seconds() / float64(n) * 1000
	}
	var setupS []float64
	for _, ref := range refs {
		setupS = append(setupS, ref.wall.Seconds())
	}
	rep.Detail.Samples["setup_s"] = len(setupS)
	rep.Detail.Samples["campaign_s_p50"] = len(w.campaignSeconds())
	rep.Result.Metrics = map[string]metric{}
	for _, m := range endToEndMetrics {
		var v float64
		switch m.Name {
		case "setup_s":
			v = median(setupS)
		case "trials_per_s":
			v = w.trialsPerS()
		case "campaign_s_p50":
			v = median(w.campaignSeconds())
		case "cpu_s_per_ktrial":
			v = cpuPerK
		case "peak_rss_mb":
			v = u.maxRSSMB
		default:
			return fmt.Errorf("end-to-end metric %q is declared but not measured", m.Name)
		}
		rep.Result.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return nil
}
