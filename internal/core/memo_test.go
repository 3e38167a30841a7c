package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

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
