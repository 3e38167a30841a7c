package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// resetGoldens empties the process-wide golden-run cache, so a test that
// counts its entries or the application's runs starts from a known state.
func resetGoldens() {
	goldens.Lock()
	goldens.m = map[string]*goldenRun{}
	goldens.Unlock()
}

func mustLoadGolden(t *testing.T, e *Engine) *goldenRun {
	t.Helper()
	g, err := e.loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOneGoldenRunPerFingerprint: every engine of one workload fingerprint
// — whatever its policy, pruning, budgets, fork switch, network dimension
// or index range — classifies, profiles and forks from a single fault-free
// run of the application, and a second fingerprint costs exactly one more.
// The application counts every run it starts on rank 0; the fault-free ones
// are those less the trials the engines report having executed.
func TestOneGoldenRunPerFingerprint(t *testing.T) {
	resetGoldens()
	app := &recordShyApp{name: "counted"}
	cfg := apps.Config{Ranks: 4, Seed: 1}
	var executed int64
	goldenRuns := func() int64 { return app.runs.Load() - executed }
	campaign := func(name string, opts Options, run func(*Engine) error) {
		t.Helper()
		e := New(app, cfg, opts)
		if err := run(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := e.SnapshotStats()
		executed += int64(st.Forked + st.Replayed)
		if got := goldenRuns(); got != 1 {
			t.Fatalf("after the %s engine: %d fault-free runs of one fingerprint, want 1", name, got)
		}
	}
	direct := func(e *Engine) error {
		_, err := e.RunCampaign()
		return err
	}

	for _, policy := range []FaultPolicy{PolicyDataBuffer, PolicyAllParams} {
		opts := diffTestOptions(1)
		opts.Policy = policy
		campaign(fmt.Sprintf("policy %d", policy), opts, direct)
	}
	ml := diffTestOptions(1)
	ml.ML.Pruning, ml.ML.Batch, ml.ML.MinTrain = true, 2, 4
	campaign("ml", ml, direct)
	adaptive := diffTestOptions(1)
	adaptive.Adaptive.Enabled, adaptive.TrialsPerPoint = true, 12
	campaign("adaptive", adaptive, direct)
	disabled := diffTestOptions(1)
	disabled.Fork.Disable = true
	campaign("Fork.Disable", disabled, direct)
	networked := diffTestOptions(1)
	networked.Topology = "ring"
	plan, err := fault.ParseNetPlan("drop:0-1:1")
	if err != nil {
		t.Fatal(err)
	}
	networked.Network.Plan = plan
	campaign("network plan", networked, direct)
	campaign("RunRange shard", diffTestOptions(1), func(e *Engine) error {
		info, err := e.PlanInfo()
		if err != nil {
			return err
		}
		_, err = NewSupervisor(e, SupervisorOptions{Workers: 1}).RunRange(context.Background(), 0, info.Points, nil, nil)
		return err
	})

	// Another config seed is another workload: one more run.
	other := cfg
	other.Seed = 2
	if _, err := New(app, other, diffTestOptions(1)).Profile(); err != nil {
		t.Fatal(err)
	}
	if got := goldenRuns(); got != 2 {
		t.Fatalf("a second fingerprint: %d fault-free runs in all, want 2", got)
	}

	// The unpooled reference engine runs its own and leaves the cache alone.
	fp := New(app, cfg, diffTestOptions(1)).forkFingerprint()
	goldens.Lock()
	before, entries := goldens.m[fp], len(goldens.m)
	goldens.Unlock()
	ref := New(app, cfg, diffTestOptions(1))
	ref.unpooled = true
	if g := mustLoadGolden(t, ref); g == before {
		t.Fatal("the unpooled engine took the pooled engines' golden run")
	}
	if got := goldenRuns(); got != 3 {
		t.Fatalf("the unpooled engine: %d fault-free runs in all, want 3", got)
	}
	goldens.Lock()
	after, entriesAfter := goldens.m[fp], len(goldens.m)
	goldens.Unlock()
	if after != before || entriesAfter != entries {
		t.Fatalf("the unpooled engine changed the cache: %d entries, want %d, entry replaced %t", entriesAfter, entries, after != before)
	}

	// Eight engines of a new fingerprint profiling at once wait for one run.
	resetGoldens()
	concurrent := cfg
	concurrent.Seed = 3
	engines := make([]*Engine, 8)
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = New(app, concurrent, diffTestOptions(1))
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if _, err := e.Profile(); err != nil {
				t.Error(err)
			}
		}(engines[i])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	p0, r0 := mustLoadGolden(t, engines[0]).prof, engines[0].Golden()
	for i, e := range engines[1:] {
		if p, _ := e.Profile(); p != p0 || !reflect.DeepEqual(e.Golden(), r0) {
			t.Errorf("concurrent engine %d disagrees with engine 0 on its profile or golden results", i+1)
		}
	}
	goldens.Lock()
	n := len(goldens.m)
	goldens.Unlock()
	if n != 1 {
		t.Errorf("concurrent engines of one fingerprint left %d cache entries, want 1", n)
	}
	if got := goldenRuns(); got != 4 {
		t.Errorf("concurrent engines: %d fault-free runs in all, want 4", got)
	}
}

// TestRunOnceOnUnprofiledEngine: RunOnce profiles an engine nothing has
// profiled, so a fault-free run is classified against the golden run, not
// against an empty reference.
func TestRunOnceOnUnprofiledEngine(t *testing.T) {
	e := appDigestEngine(lu.New(), 1, diffTestOptions(1))
	if g := e.Golden(); !reflect.DeepEqual(g, mpi.RunResult{}) {
		t.Fatalf("Golden before Profile: %+v, want the zero RunResult", g)
	}
	if got, res := e.RunOnce(); got != classify.Success {
		t.Fatalf("fault-free RunOnce of an unprofiled engine: %v (%v), want SUCCESS", got, res.FirstError())
	}
}
