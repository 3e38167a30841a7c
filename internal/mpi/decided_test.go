package mpi

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// gateState is gateApp's checkpoint: the iteration to run and the running
// value every rank reports.
type gateState struct {
	it  int
	acc float64
}

func (s *gateState) Clone() State { c := *s; return &c }
func (s *gateState) Equal(o State) bool {
	t := o.(*gateState)
	return s.it == t.it && EqualBits([]float64{s.acc}, []float64{t.acc})
}

// gateRun is one run of gateApp: how many rank goroutines entered it, and
// the handle of the last rank to enter, which a stalling hook reads the
// world's kill from.
type gateRun struct {
	entered atomic.Int32
	last    atomic.Pointer[Rank]
}

// gateApp checkpoints at the top of each of three iterations, each an
// Allreduce, and ends in a Bcast from rank 0, in which rank 3 of four is a
// leaf that only receives. With recoverErr a rank that meets an MPI error in
// the Bcast takes it as an error return and returns cleanly, and its peers,
// which need nothing more from it, run to the end.
func gateApp(g *gateRun, recoverErr bool) func(*Rank) error {
	return func(r *Rank) (err error) {
		g.entered.Add(1)
		g.last.Store(r)
		s, resumed := r.Resume().(*gateState)
		if !resumed {
			s = &gateState{acc: float64(r.ID() + 1)}
		}
		for ; s.it < 3; s.it++ {
			r.Checkpoint(s)
			r.Tick(10)
			s.acc = r.AllreduceFloat64(s.acc*0.5, OpSum, CommWorld)
		}
		r.Checkpoint(s)
		if recoverErr {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(MPIError); !ok {
						panic(p)
					}
				}
			}()
		}
		buf := r.FromFloat64s([]float64{s.acc})
		r.Bcast(buf, 1, Float64, 0, CommWorld)
		r.ReportResult(buf.Float64s()...)
		return nil
	}
}

// gateHook acts on one collective call, as it enters or, with after, as
// it returns.
type gateHook struct {
	NopHook
	rank  int
	site  uintptr
	inv   int
	after bool
	act   func(*CollectiveCall)
}

func (h *gateHook) BeforeCollective(c *CollectiveCall) { h.on(c, false) }
func (h *gateHook) AfterCollective(c *CollectiveCall)  { h.on(c, true) }

func (h *gateHook) on(c *CollectiveCall, after bool) {
	if after == h.after && c.Rank == h.rank && c.Site == h.site && c.Invocation == h.inv {
		h.act(c)
	}
}

// TestDecidedRunStartsOneRank: a forked run starts only its faulted rank
// and starts the others the first time that rank could affect them. A
// faulted rank that fails before communicating decides the run alone, as
// the full replay decides it; one that communicates, or returns cleanly,
// runs the world to the full replay's end; a clock or a cancellation
// before the release kills the held ranks with its own reason.
func TestDecidedRunStartsOneRank(t *testing.T) {
	const n, seed = 4, int64(9)
	var rec gateRun
	golden := Run(RunOptions{NumRanks: n, Seed: seed, Record: true}, gateApp(&rec, false))
	if !golden.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", golden.Trace.Reason())
	}
	// Every rank's last collective is the Bcast; find each one's call.
	bcast := func(rank int) (uintptr, int) {
		evs := golden.Trace.ranks[rank].events
		ev := evs[len(evs)-1]
		if ev.kind != evColl || ev.coll != CollBcast {
			t.Fatalf("rank %d's last tape event is not the Bcast", rank)
		}
		return ev.site, int(ev.inv)
	}
	type run struct {
		res     RunResult
		entered int
	}
	// gateCase is one fault: act, on rank's Bcast as it enters or, with
	// after, as it returns; recoverErr is gateApp's.
	type gateCase struct {
		rank              int
		after, recoverErr bool
		act               func(*gateRun, *CollectiveCall)
	}
	trial := func(c gateCase, o RunOptions, fork bool) run {
		site, inv := bcast(c.rank)
		g := &gateRun{}
		o.NumRanks, o.Seed = n, seed
		o.Hook = &gateHook{rank: c.rank, site: site, inv: inv, after: c.after, act: func(cc *CollectiveCall) { c.act(g, cc) }}
		if fork {
			o.Fork = golden.Trace.Fork(c.rank, site, inv)
			if o.Fork.Resumes() != n {
				t.Fatalf("the fork at rank %d's Bcast does not resume every rank", c.rank)
			}
		}
		res := Run(o, gateApp(g, c.recoverErr))
		return run{res, int(g.entered.Load())}
	}
	negCount := func(_ *gateRun, c *CollectiveCall) { c.Args.Count = -1 }
	abort := func(_ *gateRun, c *CollectiveCall) { panic(AppError{Rank: c.Rank, Message: "check failed"}) }

	// Rank 3, a leaf, fails before it receives.
	for _, tc := range []struct {
		name string
		act  func(*gateRun, *CollectiveCall)
		why  Provenance
	}{
		{"MPI error", negCount, Decided},
		{"segfault", func(_ *gateRun, c *CollectiveCall) { c.Args.Dtype = Datatype(1 << 16) }, SegFaulted},
		{"application error", abort, Decided},
	} {
		c := gateCase{rank: 3, act: tc.act}
		forked, full := trial(c, RunOptions{}, true), trial(c, RunOptions{}, false)
		if forked.entered != 1 {
			t.Errorf("%s: %d ranks entered the decided run, want 1", tc.name, forked.entered)
		}
		if forked.res.Provenance != tc.why {
			t.Errorf("%s: kill reason %q, want %q", tc.name, forked.res.Provenance, tc.why)
		}
		for i, rr := range forked.res.Ranks[:3] {
			if rr.Err != (Killed{Reason: tc.why.String()}) {
				t.Errorf("%s: held rank %d ended with %v", tc.name, i, rr.Err)
			}
		}
		if a, b := forked.res.FirstError(), full.res.FirstError(); a == nil || a.Error() != b.Error() || forked.res.Deadlock != full.res.Deadlock || forked.res.TimedOut {
			t.Errorf("%s: decided run's verdict differs from the full replay's:\n%s\n%s", tc.name, runDigest(forked.res), runDigest(full.res))
		}
	}

	// The faulted rank posts, parks or returns cleanly: every rank starts,
	// and the run ends as the full replay ends.
	flip := func(_ *gateRun, c *CollectiveCall) { c.Args.Send.FlipBit(3) }
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
		forked, full := trial(tc.c, RunOptions{}, true), trial(tc.c, RunOptions{}, false)
		if forked.entered != n {
			t.Errorf("%s: %d ranks entered, want %d", tc.name, forked.entered, n)
		}
		if a, b := runDigest(forked.res), runDigest(full.res); a != b || forked.res.Provenance == Decided {
			t.Errorf("%s: forked run differs from the full replay (kill %q):\n%s\n%s", tc.name, forked.res.Provenance, a, b)
		}
	}

	// A clock or a cancellation while the faulted rank's hook stalls: the
	// faulted rank dies at its next park, and the held ranks never start.
	stall := func(cancel func()) func(*gateRun, *CollectiveCall) {
		return func(g *gateRun, _ *CollectiveCall) {
			if cancel != nil {
				cancel()
			}
			for !g.last.Load().world.killed() {
				time.Sleep(time.Millisecond)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		o    RunOptions
		act  func(*gateRun, *CollectiveCall)
		why  Provenance
	}{
		{"timeout", RunOptions{Timeout: 20 * time.Millisecond}, stall(nil), TimedOut},
		{"cancellation", RunOptions{Timeout: time.Minute, Context: ctx}, stall(cancel), Cancelled},
	} {
		got := trial(gateCase{rank: 3, act: tc.act}, tc.o, true)
		res := got.res
		if got.entered != 1 || res.Provenance != tc.why || res.TimedOut != (tc.why == TimedOut) || res.Cancelled != (tc.why == Cancelled) {
			t.Errorf("%s while held: entered %d, kill %q, timedout=%v cancelled=%v", tc.name, got.entered, res.Provenance, res.TimedOut, res.Cancelled)
		}
		for _, rr := range res.Ranks {
			if rr.Err != (Killed{Reason: tc.why.String()}) {
				t.Errorf("%s while held: rank %d ended with %v", tc.name, rr.Rank, rr.Err)
			}
		}
	}
}

// TestForkExcludesRecordNetworkCrashes: a Fork with any of the options its
// doc names exclusive is a programming error of the harness, refused
// before a rank runs.
func TestForkExcludesRecordNetworkCrashes(t *testing.T) {
	rec := Run(RunOptions{NumRanks: 2, Record: true}, forkTestApp)
	evs := rec.Trace.ranks[0].events
	last := evs[len(evs)-1]
	fk := rec.Trace.Fork(0, last.site, int(last.inv))
	if fk == nil {
		t.Fatal("no fork at rank 0's final Barrier")
	}
	for _, tc := range []struct {
		name string
		o    RunOptions
	}{
		{"Record", RunOptions{Record: true}},
		{"Network", RunOptions{Network: NewNetwork(flatTopo{n: 2})}},
		{"CrashedRanks", RunOptions{CrashedRanks: []int{1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run accepted a Fork with %s", tc.name)
				}
			}()
			o := tc.o
			o.NumRanks, o.Fork = 2, fk
			Run(o, func(r *Rank) error { t.Errorf("%s: rank %d ran", tc.name, r.ID()); return nil })
		}()
	}
}
