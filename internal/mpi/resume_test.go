package mpi_test

import (
	"math"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// A forked rank that resumes from its last checkpoint (checkpoint.go) must
// end where the reference run ends; the table (equivalence_test.go) holds
// every resumed fork of its rows to that. These are the resume's negative
// control and the report of a prefix that leaves its tape.

// ckptState is the test applications' checkpoint: the iteration to run, the
// running value every rank reports and a call counter. forget makes Clone
// leave the value out — the negative control's broken checkpoint.
type ckptState struct {
	it     int
	acc    float64
	calls  int
	forget bool
}

func (s *ckptState) Equal(o mpi.State) bool {
	t := o.(*ckptState)
	return s.it == t.it && s.calls == t.calls && s.forget == t.forget && mpi.EqualBits([]float64{s.acc}, []float64{t.acc})
}

// next returns the number of earlier calls, 0, 1, 2, ... in program order.
func (s *ckptState) next() int {
	s.calls++
	return s.calls - 1
}

func (s *ckptState) Clone() mpi.State {
	c := *s
	if s.forget {
		c.acc = 0
	}
	return &c
}

// randApp leans on every piece of bookkeeping a checkpoint carries for the
// application: it draws from the rank's default random stream and counts
// calls in its state on both sides of its checkpoints, reports a value every
// iteration and sets its phase and error-handling mark only before the
// first. Its ring shift
// crosses the collectives, so cuts prestock.
func randApp(forget bool) func(*mpi.Rank) error {
	return func(r *mpi.Rank) error {
		me, n := r.ID(), r.NumRanks()
		const W = mpi.CommWorld
		s, resumed := r.Resume().(*ckptState)
		if !resumed {
			r.SetPhase(mpi.PhaseCompute)
			r.SetErrHandling(true)
			s = &ckptState{forget: forget}
			s.acc = r.Rand().Float64() + float64(s.next())
		}
		for ; s.it < 4; s.it++ {
			r.Checkpoint(s)
			r.Tick(100)
			x := r.Rand().Float64() + s.acc + float64(s.next())
			r.SendFloat64s(W, (me+1)%n, 3, []float64{x})
			r.Barrier(W)
			in := r.RecvFloat64sInto(W, (me-1+n)%n, 3, nil)
			s.acc = math.Mod(s.acc+r.AllreduceFloat64(x+in[0], mpi.OpSum, W), 97)
			r.ReportResult(s.acc)
		}
		r.Checkpoint(s)
		return nil
	}
}

// runBooked runs fn and reads every rank's books as the rank stops.
func runBooked(o mpi.RunOptions, fn func(*mpi.Rank) error) trial {
	books := make([]mpi.Books, o.NumRanks)
	res := mpi.Run(o, func(r *mpi.Rank) error {
		defer func() { books[r.ID()] = mpi.BooksOf(r) }()
		return fn(r)
	})
	return trial{res, books}
}

// TestResumeNegativeControl: a checkpoint that leaves out a value the rest
// of the run reads makes the resumed forks of the table's fault sample
// differ from their reference runs, and equivalent says so.
func TestResumeNegativeControl(t *testing.T) {
	row := trialRow{opts: mpi.RunOptions{NumRanks: 4, Seed: 5}, fn: randApp(true)}
	resumed, diffs := 0, 0
	row.sweep(t, func(f fault.Fault, _ cutCall, fk *mpi.Fork, golden mpi.RunResult, ref, cand trial) {
		if fk.Resumes() > 0 {
			resumed++
		}
		if equivalent(golden, ref.RunResult, cand.RunResult, f.Rank) != "" {
			diffs++
		}
	})
	if resumed == 0 || diffs == 0 {
		t.Fatalf("%d of the faults differ from their reference runs, %d forks resumed: equivalent did not tell a checkpoint that forgets the running value from a whole one", diffs, resumed)
	}
}

// divergentApp leaves the tape once resumed: it makes a Barrier where its
// recording made an Allreduce, or, with early, returns.
func divergentApp(early bool) func(*mpi.Rank) error {
	return func(r *mpi.Rank) error {
		s, resumed := r.Resume().(*ckptState)
		if !resumed {
			s = &ckptState{}
		}
		for ; s.it < 3; s.it++ {
			r.Checkpoint(s)
			switch {
			case resumed && early:
				return nil
			case resumed:
				r.Barrier(mpi.CommWorld)
			default:
				r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld)
			}
			r.Barrier(mpi.CommWorld)
		}
		return nil
	}
}

// TestForkDivergenceIsReported: a forked run whose prefix leaves the tape
// reports a Divergence on its ranks and in RunResult.Divergence, and no
// rank reports it as an application failure.
func TestForkDivergenceIsReported(t *testing.T) {
	for _, tc := range []struct {
		name  string
		early bool
		want  string
	}{
		{"another call", false, "tape holds MPI_Allreduce, application called MPI_Barrier"},
		{"early return", true, "returned at tape position 4, before its cut at 5"},
	} {
		fn := divergentApp(tc.early)
		opts := mpi.RunOptions{NumRanks: 4, Seed: 1}
		golden, calls := record(t, opts, fn)
		last := calls[0][len(calls[0])-1]
		fk := golden.Trace.Fork(0, last.site, last.inv)
		if fk == nil || fk.Resumes() != 4 {
			t.Fatalf("%s: the fork at the last Barrier does not resume every rank", tc.name)
		}
		o := opts
		o.Fork = fk
		res := mpi.Run(o, fn)
		if res.Divergence == nil || !strings.Contains(res.Divergence.Error(), tc.want) {
			t.Fatalf("%s: Divergence = %v, want one saying %q", tc.name, res.Divergence, tc.want)
		}
		for _, rr := range res.Ranks {
			switch rr.Err.(type) {
			case mpi.Divergence, mpi.Killed:
			default:
				t.Errorf("%s: rank %d ended with %v", tc.name, rr.Rank, rr.Err)
			}
		}
		if o.Fork = fk.WithoutResume(); mpi.Run(o, fn).Divergence != nil {
			t.Errorf("%s: the fork replayed from t=0 diverged as well", tc.name)
		}
	}
}
