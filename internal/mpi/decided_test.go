package mpi_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/mpi"
)

// gateState is gateApp's checkpoint: the iteration to run and the running
// value every rank reports.
type gateState struct {
	it  int
	acc float64
}

func (s *gateState) Clone() mpi.State { c := *s; return &c }
func (s *gateState) Equal(o mpi.State) bool {
	t := o.(*gateState)
	return s.it == t.it && mpi.EqualBits([]float64{s.acc}, []float64{t.acc})
}

// gateRun is one run of gateApp: how many rank goroutines entered it, and
// the handle of the last rank to enter, which a stalling hook reads the
// world's kill from.
type gateRun struct {
	entered atomic.Int32
	last    atomic.Pointer[mpi.Rank]
}

// gateApp checkpoints at the top of each of three iterations, each an
// Allreduce, and ends in a Bcast from rank 0, in which rank 3 of four is a
// leaf that only receives. With recoverErr a rank that meets an MPI error in
// the Bcast takes it as an error return and returns cleanly, and its peers,
// which need nothing more from it, run to the end. It is never inlined, so
// that every run executes the one closure.
//
//go:noinline
func gateApp(g *gateRun, recoverErr bool) func(*mpi.Rank) error {
	return func(r *mpi.Rank) (err error) {
		g.entered.Add(1)
		g.last.Store(r)
		s, resumed := r.Resume().(*gateState)
		if !resumed {
			s = &gateState{acc: float64(r.ID() + 1)}
		}
		for ; s.it < 3; s.it++ {
			r.Checkpoint(s)
			r.Tick(10)
			s.acc = r.AllreduceFloat64(s.acc*0.5, mpi.OpSum, mpi.CommWorld)
		}
		r.Checkpoint(s)
		if recoverErr {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(mpi.MPIError); !ok {
						panic(p)
					}
				}
			}()
		}
		buf := r.FromFloat64s([]float64{s.acc})
		r.Bcast(buf, 1, mpi.Float64, 0, mpi.CommWorld)
		r.ReportResult(buf.Float64s()...)
		return nil
	}
}

// gateHook acts on one collective call, as it enters or, with after, as
// it returns.
type gateHook struct {
	mpi.NopHook
	c     cutCall
	rank  int
	after bool
	act   func(*mpi.CollectiveCall)
}

func (h *gateHook) BeforeCollective(c *mpi.CollectiveCall) { h.on(c, false) }
func (h *gateHook) AfterCollective(c *mpi.CollectiveCall)  { h.on(c, true) }

func (h *gateHook) on(c *mpi.CollectiveCall, after bool) {
	if after == h.after && c.Rank == h.rank && c.Site == h.c.site && c.Invocation == h.c.inv {
		h.act(c)
	}
}

// gateGolden records gateApp at four ranks and returns the recording run
// and every rank's calls.
func gateGolden(t *testing.T) (mpi.RunOptions, mpi.RunResult, [][]cutCall) {
	t.Helper()
	opts := mpi.RunOptions{NumRanks: 4, Seed: 9}
	golden, calls := record(t, opts, gateApp(&gateRun{}, false))
	return opts, golden, calls
}

// TestDecidedRunStartsOneRank: a forked run starts only its faulted rank
// and starts the others the first time that rank could affect them. A
// faulted rank that fails before communicating decides the run alone, as
// the reference run decides it; one that communicates, or returns cleanly,
// runs the world to the reference's end; a clock or a cancellation
// before the release kills the held ranks with its own reason. Every run
// is compared with the reference through equivalent.
func TestDecidedRunStartsOneRank(t *testing.T) {
	opts, golden, calls := gateGolden(t)
	n := opts.NumRanks
	// Every rank's last collective is the Bcast.
	bcast := func(rank int) cutCall {
		c := calls[rank][len(calls[rank])-1]
		if c.typ != mpi.CollBcast {
			t.Fatalf("rank %d's last collective is %v, not the Bcast", rank, c.typ)
		}
		return c
	}
	type run struct {
		res     mpi.RunResult
		entered int
	}
	// gateCase is one fault: act, on rank's Bcast as it enters or, with
	// after, as it returns; recoverErr is gateApp's.
	type gateCase struct {
		rank              int
		after, recoverErr bool
		act               func(*gateRun, *mpi.CollectiveCall)
	}
	// trial runs c forked, or without fork as the reference run.
	trial := func(c gateCase, o mpi.RunOptions, fork bool) run {
		g := &gateRun{}
		call := bcast(c.rank)
		o.NumRanks, o.Seed = n, opts.Seed
		o.Hook = &gateHook{c: call, rank: c.rank, after: c.after, act: func(cc *mpi.CollectiveCall) { c.act(g, cc) }}
		if fork {
			o.Fork = golden.Trace.Fork(c.rank, call.site, call.inv)
			if o.Fork.Resumes() != n {
				t.Fatalf("the fork at rank %d's Bcast does not resume every rank", c.rank)
			}
		} else {
			o.DisablePooling = true
		}
		res := mpi.Run(o, gateApp(g, c.recoverErr))
		if d := res.FlagsDisagree(); d != "" {
			t.Errorf("rank %d's Bcast fault (fork %t): %s", c.rank, fork, d)
		}
		return run{res, int(g.entered.Load())}
	}
	negCount := func(_ *gateRun, c *mpi.CollectiveCall) { c.Args.Count = -1 }
	abort := func(_ *gateRun, c *mpi.CollectiveCall) { panic(mpi.AppError{Rank: c.Rank, Message: "check failed"}) }

	// Rank 3, a leaf, fails before it receives.
	for _, tc := range []struct {
		name string
		act  func(*gateRun, *mpi.CollectiveCall)
		why  mpi.Provenance
	}{
		{"MPI error", negCount, mpi.Decided},
		{"segfault", func(_ *gateRun, c *mpi.CollectiveCall) { c.Args.Dtype = mpi.Datatype(1 << 16) }, mpi.SegFaulted},
		{"application error", abort, mpi.Decided},
	} {
		c := gateCase{rank: 3, act: tc.act}
		forked, ref := trial(c, mpi.RunOptions{}, true), trial(c, mpi.RunOptions{}, false)
		if forked.entered != 1 {
			t.Errorf("%s: %d ranks entered the decided run, want 1", tc.name, forked.entered)
		}
		if forked.res.Provenance != tc.why {
			t.Errorf("%s: kill reason %q, want %q", tc.name, forked.res.Provenance, tc.why)
		}
		for i, rr := range forked.res.Ranks[:3] {
			if rr.Err != (mpi.Killed{Reason: tc.why.String()}) {
				t.Errorf("%s: held rank %d ended with %v", tc.name, i, rr.Err)
			}
		}
		if d := equivalent(golden, ref.res, forked.res, 3); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}

	// The faulted rank posts, parks or returns cleanly: every rank starts,
	// and the run ends as the reference ends.
	flip := func(_ *gateRun, c *mpi.CollectiveCall) { c.Args.Send.FlipBit(3) }
	for _, tc := range []struct {
		name string
		c    gateCase
	}{
		// The root's sends carry the flip.
		{"communicating fault", gateCase{rank: 0, act: flip}},
		// The leaf parks for the root's data, which overwrites the flip.
		{"receive first", gateCase{rank: 3, act: flip}},
		// The root fails once its Bcast has sent: no decided run.
		{"failure after sending", gateCase{rank: 0, after: true, act: abort}},
		// The leaf takes its error as a return value; the others finish
		// the Bcast without it.
		{"clean return", gateCase{rank: 3, recoverErr: true, act: negCount}},
	} {
		forked, ref := trial(tc.c, mpi.RunOptions{}, true), trial(tc.c, mpi.RunOptions{}, false)
		if forked.entered != n {
			t.Errorf("%s: %d ranks entered, want %d", tc.name, forked.entered, n)
		}
		if forked.res.Provenance == mpi.Decided {
			t.Errorf("%s: forked run was decided", tc.name)
		}
		if d := equivalent(golden, ref.res, forked.res, tc.c.rank); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}

	// A clock or a cancellation while the faulted rank's hook stalls: the
	// faulted rank dies at its next park, and the held ranks never start.
	stall := func(cancel func()) func(*gateRun, *mpi.CollectiveCall) {
		return func(g *gateRun, _ *mpi.CollectiveCall) {
			if cancel != nil {
				cancel()
			}
			for !mpi.Stopped(g.last.Load()) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		o    mpi.RunOptions
		act  func(*gateRun, *mpi.CollectiveCall)
		why  mpi.Provenance
	}{
		{"timeout", mpi.RunOptions{Timeout: 20 * time.Millisecond}, stall(nil), mpi.TimedOut},
		{"cancellation", mpi.RunOptions{Timeout: time.Minute, Context: ctx}, stall(cancel), mpi.Cancelled},
	} {
		got := trial(gateCase{rank: 3, act: tc.act}, tc.o, true)
		res := got.res
		if got.entered != 1 || res.Provenance != tc.why || res.TimedOut != (tc.why == mpi.TimedOut) || res.Cancelled != (tc.why == mpi.Cancelled) {
			t.Errorf("%s while held: entered %d, kill %q, timedout=%v cancelled=%v", tc.name, got.entered, res.Provenance, res.TimedOut, res.Cancelled)
		}
		for _, rr := range res.Ranks {
			if rr.Err != (mpi.Killed{Reason: tc.why.String()}) {
				t.Errorf("%s while held: rank %d ended with %v", tc.name, rr.Rank, rr.Err)
			}
		}
	}
}

// TestCutOutranksARacingCancel: a cancellation that lands after every
// other rank has matched the golden run at the faulted call, but before the
// faulted rank completes the tally, ends the run as Reconverged, and the
// run says so in every flag: not Cancelled.
func TestCutOutranksARacingCancel(t *testing.T) {
	opts, golden, calls := gateGolden(t)
	n := opts.NumRanks
	first := calls[0][0]
	if first.typ != mpi.CollAllreduce {
		t.Fatal("rank 0's first collective is not the Allreduce")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &gateRun{}
	// Rank 0's hook runs before its own match is counted: it waits for the
	// other ranks' matches, cancels the run and waits for the kill.
	stall := func(*mpi.CollectiveCall) {
		r := g.last.Load()
		for mpi.Matched(r) != n-1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		for !mpi.Stopped(r) {
			time.Sleep(time.Millisecond)
		}
	}
	o := opts
	o.Timeout, o.Context = time.Minute, ctx
	o.Hook = &gateHook{c: first, rank: 0, after: true, act: stall}
	o.Fork = golden.Trace.Fork(0, first.site, first.inv)
	res := mpi.Run(o, gateApp(g, false))
	if res.Provenance != mpi.Reconverged || !res.Reconverged {
		t.Fatalf("run ended %q (reconverged %t), want a cut at the call", res.Provenance, res.Reconverged)
	}
	if d := res.FlagsDisagree(); d != "" {
		t.Error(d)
	}
}
