package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// A point's trial sequence runs each effective fault once and reuses that
// outcome for the repeats (runTrialWave). There is no switch that turns the
// reuse off to compare against, so these tests check it against the thing it
// stands in for: actually running the fault.

func recordedFault(p Point, tr TrialResult) fault.Fault {
	return fault.Fault{Rank: p.Rank, Site: p.Site, Invocation: p.Invocation, Target: tr.Target, Bit: tr.Bit}
}

// wantMemoised recomputes, from a campaign's recorded trials and the
// profile's widths alone, how many trials repeat an earlier effective fault
// of their point — the number the engine must report as Memoised, whatever
// the execution mode.
func wantMemoised(t *testing.T, e *Engine, measured []PointResult) (memoised, total int) {
	t.Helper()
	for _, pr := range measured {
		w, ok := e.gold.Load().prof.Widths(pr.Point.Rank, pr.Point.Site, pr.Point.Invocation)
		if !ok {
			t.Fatalf("no widths recorded for %s", pr.Point.String())
		}
		seen := map[effectiveFault]bool{}
		for _, tr := range pr.Trials {
			k := effectiveFault{tr.Target, w.EffectiveBit(tr.Target, tr.Bit)}
			if seen[k] {
				memoised++
			}
			seen[k] = true
		}
		total += len(pr.Trials)
	}
	return memoised, total
}

// TestMemoOracle runs memoised campaigns of the three halo applications,
// direct and adaptive-with-refinement, and then executes every recorded
// trial for real through RunOnce — which never reuses anything — requiring
// the same outcome trial by trial. It also requires the accounting to be
// the three-way partition of the recorded trials, with Memoised exactly the
// repeats of an effective fault in trial order.
func TestMemoOracle(t *testing.T) {
	seeds := int64(3)
	if raceEnabled || testing.Short() {
		seeds = 1
	}
	reused := 0
	for _, app := range []apps.App{mg.New(), lu.New(), minimd.New()} {
		for seed := int64(1); seed <= seeds; seed++ {
			for _, mode := range []string{"direct", "adaptive"} {
				opts := diffTestOptions(seed)
				opts.TrialsPerPoint = 16
				if mode == "adaptive" {
					opts.Adaptive.Enabled = true
				} else {
					opts.Policy = PolicyAllParams
				}
				leg := fmt.Sprintf("%s/seed=%d/%s", app.Name(), seed, mode)
				e := appDigestEngine(app, seed, opts)
				refinedPoints := 0
				e.events.attach(ObserverFunc(func(ev Event) {
					if _, ok := ev.(PointRefined); ok {
						refinedPoints++
					}
				}))
				res, err := e.RunCampaign()
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				st := e.SnapshotStats()
				memoised, total := wantMemoised(t, e, res.Measured)
				if st.Forked+st.Replayed+st.Memoised != total || st.Memoised != memoised || st.Replayed != 0 {
					t.Errorf("%s: accounting %+v, want forked+memoised = %d trials with %d memoised and none replayed",
						leg, st, total, memoised)
				}
				if mode == "adaptive" && refinedPoints == 0 {
					t.Errorf("%s: no point was refined; the prior-trials path of the memo is untested", leg)
				}
				reused += st.Memoised

				for _, pr := range res.Measured {
					for i, tr := range pr.Trials {
						if got, _ := e.RunOnce(recordedFault(pr.Point, tr)); got != tr.Outcome {
							t.Errorf("%s: %s trial %d (%v bit %d): campaign recorded %v, running the fault gives %v",
								leg, pr.Point.String(), i, tr.Target, tr.Bit, tr.Outcome, got)
						}
					}
				}
				if after := e.SnapshotStats(); after.Memoised != st.Memoised || after.Forked != st.Forked+total {
					t.Errorf("%s: RunOnce did not execute every fault it was given: %+v after %d calls on top of %+v", leg, after, total, st)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no campaign reused an outcome; the oracle compared nothing the memo produced")
	}
}

// memoLeg is one execution of the pinned campaign: its bytes and its trial
// accounting, summed over the legs of an interrupted run.
type memoLeg struct {
	json                                                  []byte
	forked, replayed, memoised, reconverged, atCheckpoint int
}

func (l *memoLeg) add(st SnapshotStats) {
	l.forked, l.replayed, l.memoised = l.forked+st.Forked, l.replayed+st.Replayed, l.memoised+st.Memoised
	l.reconverged, l.atCheckpoint = l.reconverged+st.Reconverged, l.atCheckpoint+st.AtCheckpoint
}

// TestMemoDeterminism: which trials execute is a function of the trial
// sequence alone. The same adaptive campaign run one trial at a time, four
// trials at a time (waves that overrun the stopping index), on three point
// workers, and killed after k points then resumed from the journal, reports
// the same Forked/Replayed/Memoised, the same Reconverged inside Forked and
// AtCheckpoint inside that (a run is cut when its last rank matches the
// tape, not when the supervisor happens to read the signal) and the same
// campaign bytes. It runs is, and lu, whose checkpoints is lacks.
func TestMemoDeterminism(t *testing.T) {
	t.Run("is", func(t *testing.T) {
		memoDeterminism(t, false, func(o Options) *Engine { return diffTestEngine(t, o) })
	})
	t.Run("lu", func(t *testing.T) {
		memoDeterminism(t, true, func(o Options) *Engine { return appDigestEngine(lu.New(), o.Seed, o) })
	})
}

// memoDeterminism is TestMemoDeterminism on one application; checkpoints
// says whether its campaign must cut some trial at a checkpoint.
func memoDeterminism(t *testing.T, checkpoints bool, engine func(Options) *Engine) {
	opts := diffTestOptions(5)
	opts.Adaptive.Enabled = true
	opts.TrialsPerPoint = 32
	opts.Parallelism = 1

	run := func(t *testing.T, o Options, so SupervisorOptions) memoLeg {
		t.Helper()
		e := engine(o)
		res, err := NewSupervisor(e, so).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Cancelled || len(res.Quarantined) != 0 {
			t.Fatalf("leg not clean: %+v", res)
		}
		leg := memoLeg{json: campaignBytes(t, res.CampaignResult)}
		leg.add(e.SnapshotStats())
		if memoised, total := wantMemoised(t, e, res.Measured); res.FromCheckpoint == 0 &&
			(leg.memoised != memoised || leg.forked+leg.replayed+leg.memoised != total) {
			t.Fatalf("accounting %+v is not the partition of %d recorded trials with %d repeats", leg, total, memoised)
		}
		return leg
	}

	ref := run(t, opts, SupervisorOptions{Workers: 1})
	if ref.memoised == 0 || ref.forked == 0 || ref.reconverged == 0 || checkpoints && ref.atCheckpoint == 0 {
		t.Fatalf("reference leg memoised %d, forked %d and cut %d trials, %d at a checkpoint; the campaign does not exercise the memo and the cuts",
			ref.memoised, ref.forked, ref.reconverged, ref.atCheckpoint)
	}
	same := func(t *testing.T, name string, got memoLeg) {
		t.Helper()
		if got.forked != ref.forked || got.replayed != ref.replayed || got.memoised != ref.memoised || got.reconverged != ref.reconverged || got.atCheckpoint != ref.atCheckpoint {
			t.Errorf("%s: forked/replayed/memoised/reconverged/atCheckpoint %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", name,
				got.forked, got.replayed, got.memoised, got.reconverged, got.atCheckpoint, ref.forked, ref.replayed, ref.memoised, ref.reconverged, ref.atCheckpoint)
		}
		if !bytes.Equal(got.json, ref.json) {
			t.Errorf("%s: campaign JSON differs from the one-trial-at-a-time reference", name)
		}
	}

	par4 := opts
	par4.Parallelism = 4
	same(t, "Parallelism:4", run(t, par4, SupervisorOptions{Workers: 1}))
	same(t, "Workers:3", run(t, opts, SupervisorOptions{Workers: 3}))

	for _, k := range []int{1, 5} {
		ckpt := filepath.Join(t.TempDir(), "memo.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		killOpts := opts
		killOpts.Observer = ObserverFunc(func(ev Event) {
			if pc, ok := ev.(PointCompleted); ok && pc.Completed == k {
				cancel()
			}
		})
		killed := engine(killOpts)
		part, err := NewSupervisor(killed, SupervisorOptions{Workers: 1, Checkpoint: ckpt}).Run(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !part.Cancelled || len(part.Measured) != k {
			t.Fatalf("kill at point %d: cancelled=%t with %d points measured", k, part.Cancelled, len(part.Measured))
		}
		resumed := run(t, opts, SupervisorOptions{Workers: 1, Checkpoint: ckpt})
		resumed.add(killed.SnapshotStats())
		same(t, fmt.Sprintf("killed at point %d and resumed", k), resumed)
	}
}

// TestMemoExemptions: trials that are not one parameter flip at a point the
// golden run reached are never keyed — network-target trials (Bit addresses
// a link, not a parameter bit) and every trial of a campaign with a network
// dimension (the standing plan perturbs the prefix, so the golden run's
// widths are not the injected run's).
func TestMemoExemptions(t *testing.T) {
	for name, policy := range map[string]FaultPolicy{"net-targets": PolicyNetwork, "standing-plan": PolicyAllParams} {
		opts := netDiffOptions(t, 1)
		opts.Policy = policy
		opts.TrialsPerPoint = 40 // a Barrier point has 32 parameter flips: repeats are certain
		e := netDiffEngine(t, opts, "baseline")
		points, err := e.Points()
		if err != nil {
			t.Fatal(err)
		}
		pr := e.InjectPoint(points[0], 0, opts.TrialsPerPoint)
		if st := e.SnapshotStats(); len(pr.Trials) != opts.TrialsPerPoint || st.Memoised != 0 || st.Replayed != len(pr.Trials) {
			t.Errorf("%s: %+v over %d trials, want %d, every one replayed and none memoised", name, st, len(pr.Trials), opts.TrialsPerPoint)
		}
	}
}

// TestTapeRecordingFailureIsReportedAndNotCached: an engine that ends up
// without a snapshot store says so, once, with the cause, and a cause that
// is a property of the application is cached for the fingerprint; a golden
// run that merely did not finish fails Profile and is not cached.
func TestTapeRecordingFailureIsReportedAndNotCached(t *testing.T) {
	notes := func(e *Engine) (texts []string) {
		e.events.attach(ObserverFunc(func(ev Event) {
			if n, ok := ev.(Note); ok && strings.Contains(n.Text, "no snapshot store") {
				texts = append(texts, n.Text)
			}
		}))
		points, err := e.Points()
		if err != nil {
			t.Fatal(err)
		}
		e.InjectPoint(points[0], 0, 3)
		if st := e.SnapshotStats(); st.Forked != 0 || st.Replayed+st.Memoised != 3 {
			t.Fatalf("%s: %+v, want 3 trials and none forked", e.app.Name(), st)
		}
		return texts
	}
	cached := func(e *Engine) bool {
		goldens.Lock()
		defer goldens.Unlock()
		_, ok := goldens.m[e.forkFingerprint()]
		return ok
	}

	// The application's doing: a derived communicator poisons the tape.
	for i := 0; i < 2; i++ {
		e := New(&recordShyApp{name: "dup-comm"}, apps.Config{Ranks: 2, Seed: 1}, diffTestOptions(1))
		got := notes(e)
		if len(got) != 1 || !strings.Contains(got[0], "derived communicator") {
			t.Fatalf("engine %d of an unrecordable app: notes %q, want one naming the derived communicator", i, got)
		}
		if !cached(e) {
			t.Fatal("a refusal the application caused was not cached for its fingerprint")
		}
	}

	// The run's doing: the golden run (the application's first) aborts.
	// Profile fails with the cause and caches nothing; the next engine
	// profiles and forks.
	resetGoldens()
	app := &recordShyApp{name: "fails-once", failRun: 1}
	e := New(app, apps.Config{Ranks: 2, Seed: 1}, diffTestOptions(1))
	if _, err := e.Profile(); err == nil || !strings.Contains(err.Error(), "transient failure") {
		t.Fatalf("aborted golden run: Profile returned %v, want an error naming the abort", err)
	}
	if cached(e) {
		t.Fatal("a golden run that did not finish was cached as the fingerprint's reference")
	}
	e = New(app, apps.Config{Ranks: 2, Seed: 1}, diffTestOptions(1))
	points, err := e.Points()
	if err != nil {
		t.Fatal(err)
	}
	e.InjectPoint(points[0], 0, 3)
	if st := e.SnapshotStats(); st.Forked == 0 {
		t.Fatalf("engine after an aborted golden run did not fork: %+v", st)
	}
}

// recordShyApp is a two-collective workload whose tape recording can be made
// to fail: by duplicating a communicator (name "dup-comm": the recorder
// refuses, every time) or by aborting its failRun-th run on rank 0. It
// counts the runs it starts.
type recordShyApp struct {
	name    string
	failRun int64
	runs    atomic.Int64 // runs started, counted on rank 0
}

func (a *recordShyApp) Name() string               { return a.name }
func (a *recordShyApp) DefaultConfig() apps.Config { return apps.Config{Ranks: 2, Seed: 1} }
func (a *recordShyApp) Main(r *mpi.Rank, cfg apps.Config) error {
	if r.ID() == 0 {
		if a.runs.Add(1) == a.failRun {
			r.Abort("transient failure")
		}
	}
	if a.name == "dup-comm" {
		r.CommDup(mpi.CommWorld)
	}
	sum := r.AllreduceFloat64(float64(r.ID()+1), mpi.OpSum, mpi.CommWorld)
	r.Barrier(mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(sum)
	}
	return nil
}

// TestFaultSpace: the size ffprofile prints is the number of distinct
// effective faults the policy can draw at the point.
func TestFaultSpace(t *testing.T) {
	for _, tc := range []struct {
		policy         FaultPolicy
		bcast, barrier int
		keyed          bool
	}{
		{PolicyDataBuffer, 64, 32, true},       // the 8-byte send buffer; Barrier falls back to its one parameter
		{PolicyAllParams, 64 + 4*32, 32, true}, // sendbuf + count, datatype, root, comm
		{PolicyNetwork, 0, 0, false},
	} {
		opts := DefaultOptions()
		opts.Policy = tc.policy
		e := toyEngine(t, opts)
		points, err := e.Points()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			want := -1
			switch p.Type {
			case mpi.CollBcast:
				want = tc.bcast
			case mpi.CollBarrier:
				want = tc.barrier
			}
			if got, ok := e.FaultSpace(p); want >= 0 && (ok != tc.keyed || got != want) {
				t.Errorf("policy %d %s: fault space %d (keyed %t), want %d (keyed %t)", tc.policy, p.String(), got, ok, want, tc.keyed)
			}
		}
	}
	e := toyEngine(t, DefaultOptions())
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.FaultSpace(Point{Rank: 0, Site: 0xdead}); ok {
		t.Error("fault space reported for a point the profile does not hold")
	}
}
