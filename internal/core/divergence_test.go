package core

import (
	"context"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/mpi"
)

// divergentApp checkpoints at the top of every iteration and, once resumed,
// makes a Barrier where its recording made an Allreduce. A trial at one of
// its Barriers resumes before the swapped call and replays it from the
// tape, which holds the Allreduce: the prefix leaves the tape. (A trial at
// one of its Allreduces goes live at the checkpoint, where a different
// program is merely a different program.)
type divergentApp struct{}

type divergentState struct{ it int }

func (s *divergentState) Clone() mpi.State { c := *s; return &c }

func (divergentApp) Name() string               { return "divergent" }
func (divergentApp) DefaultConfig() apps.Config { return apps.Config{Ranks: 4, Iters: 3, Seed: 1} }
func (divergentApp) Main(r *mpi.Rank, cfg apps.Config) error {
	s, resumed := r.Resume().(*divergentState)
	if !resumed {
		s = &divergentState{}
	}
	r.SetPhase(mpi.PhaseCompute)
	for ; s.it < cfg.Iters; s.it++ {
		r.Checkpoint(s)
		r.Tick(100)
		if resumed {
			r.Barrier(mpi.CommWorld)
		} else {
			r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld)
		}
		r.Barrier(mpi.CommWorld)
	}
	r.ReportResult(1)
	return nil
}

// TestForkDivergenceIsAHarnessFailure: a forked trial whose prefix leaves
// the tape is a harness failure — a quarantined point under the supervisor,
// an error from RunCampaign or from a refinement wave — and never an
// outcome on the record.
func TestForkDivergenceIsAHarnessFailure(t *testing.T) {
	app := divergentApp{}
	opts := diffTestOptions(1)
	opts.Pruning.Semantic, opts.Pruning.Context = false, false
	sup, err := NewSupervisor(New(app, app.DefaultConfig(), opts), SupervisorOptions{Workers: 1, MaxAttempts: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.Quarantined) == 0 {
		t.Fatal("no point was quarantined")
	}
	for _, q := range sup.Quarantined {
		if q.Point.Type != mpi.CollBarrier || !strings.Contains(q.Err, "harness failure") || !strings.Contains(q.Err, "fork replay divergence") {
			t.Errorf("quarantined %s: %s", q.Point.String(), q.Err)
		}
	}
	for _, pr := range sup.Measured {
		if pr.Point.Type == mpi.CollBarrier {
			t.Errorf("%s has outcomes %v, but its trials diverge", pr.Point.String(), pr.Counts)
		}
	}
	if _, err := New(app, app.DefaultConfig(), opts).RunCampaign(); err == nil || !strings.Contains(err.Error(), "fork replay divergence") {
		t.Errorf("RunCampaign: %v, want the divergence", err)
	}

	// A refinement wave runs trials too. Phase 1 is answered from records
	// that settled early, so the refinement of every point really runs, and
	// at a Barrier point diverges: the campaign fails.
	aopts := opts
	aopts.Adaptive.Enabled = true
	aopts.TrialsPerPoint = 60
	settled := func(_ context.Context, p Point, _, _ int) (PointResult, error) {
		pr := PointResult{Point: p, Trials: make([]TrialResult, 12)}
		for i := range pr.Trials {
			pr.Trials[i].Outcome = classify.Success
			pr.Counts.Add(classify.Success)
		}
		return pr, nil
	}
	_, err = NewSupervisor(New(app, app.DefaultConfig(), aopts), SupervisorOptions{Workers: 1, MaxAttempts: 1, Inject: settled}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "refining point") || !strings.Contains(err.Error(), "fork replay divergence") {
		t.Errorf("adaptive campaign: %v, want the refinement's divergence", err)
	}
}
