package mpi_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// A forked rank that resumes from its last checkpoint (checkpoint.go) must
// end exactly where the same fork replayed from t=0 ends. These tests run
// both from every fork of a recorded trace, under the campaign's own faults.

// ckptState is the test applications' checkpoint: the iteration to run and
// the running value every rank reports. forget makes Clone leave the value
// out — the negative control's broken checkpoint.
type ckptState struct {
	it     int
	acc    float64
	forget bool
}

func (s *ckptState) Equal(o mpi.State) bool {
	t := o.(*ckptState)
	return s.it == t.it && s.forget == t.forget && mpi.EqualBits([]float64{s.acc}, []float64{t.acc})
}

func (s *ckptState) Clone() mpi.State {
	c := *s
	if s.forget {
		c.acc = 0
	}
	return &c
}

// randApp leans on every piece of bookkeeping a checkpoint carries for the
// application: it draws from the rank's default random stream and counts a
// library key on both sides of its checkpoints, reports a value every
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
			s = &ckptState{forget: forget, acc: r.Rand().Float64() + float64(r.LibSeq("rand"))}
		}
		for ; s.it < 4; s.it++ {
			r.Checkpoint(s)
			r.Tick(100)
			x := r.Rand().Float64() + s.acc + float64(r.LibSeq("rand"))
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

// appMain runs a bundled application at the given size.
func appMain(app apps.App, ranks, iters int) func(*mpi.Rank) error {
	cfg := app.DefaultConfig()
	cfg.Ranks, cfg.Iters = ranks, iters
	return func(r *mpi.Rank) error { return app.Main(r, cfg) }
}

// runBooked runs fn and reads every rank's books as the rank stops.
func runBooked(o mpi.RunOptions, fn func(*mpi.Rank) error) (mpi.RunResult, []mpi.Books) {
	books := make([]mpi.Books, o.NumRanks)
	res := mpi.Run(o, func(r *mpi.Rank) error {
		defer func() { books[r.ID()] = mpi.BooksOf(r) }()
		return fn(r)
	})
	return res, books
}

// resumeDiff says how a resumed run differs from the same fork replayed
// from t=0, "" when it does not. The verdict flags and the kill reason must
// agree always. Where the ranks' ends are a function of the program — the
// run ended by itself, deadlocked or starved behind a failed rank — so must
// every rank's error, values, work and invocation counts; a reconverged run
// returns the golden ranks whatever its ranks did; a segfault stops the
// other ranks wherever they happen to be, so only its kind is compared.
func resumeDiff(a, b mpi.RunResult, ba, bb []mpi.Books) string {
	flags := func(r mpi.RunResult) string {
		return fmt.Sprintf("deadlock=%v timedout=%v reconverged=%v divergence=%v kill=%q",
			r.Deadlock, r.TimedOut, r.Reconverged, r.Divergence, r.Provenance)
	}
	if fa, fb := flags(a), flags(b); fa != fb {
		return fa + " vs " + fb
	}
	if !b.RanksSettled() && !b.Reconverged {
		if fmt.Sprintf("%T", a.FirstError()) != fmt.Sprintf("%T", b.FirstError()) {
			return fmt.Sprintf("first error %v vs %v", a.FirstError(), b.FirstError())
		}
		return ""
	}
	for i := range b.Ranks {
		ra, rb := ranksText(a, i), ranksText(b, i)
		if ra != rb {
			return ra + " vs " + rb
		}
		if b.Reconverged {
			continue
		}
		if ka, kb := fmt.Sprint(ba[i]), fmt.Sprint(bb[i]); ka != kb {
			return fmt.Sprintf("rank %d books %s vs %s", i, ka, kb)
		}
	}
	return ""
}

// ranksText renders rank i's error and values, the values as bits.
func ranksText(res mpi.RunResult, i int) string {
	rr := res.Ranks[i]
	s := fmt.Sprintf("rank %d err=%v values=", i, rr.Err)
	for _, v := range rr.Values {
		s += fmt.Sprintf(" %016x", math.Float64bits(v))
	}
	return s
}

// resumeBits is a few bits of a parameter width bits wide: a low one and a
// high one, or the one fault an absent parameter has.
func resumeBits(width int) []int {
	if width == 0 {
		return []int{0}
	}
	return []int{5 % width, width - 3}
}

// forkSweep profiles and records fn under opts and calls each with every
// collective call of the golden run, its rank and its fork. It returns the
// golden run.
func forkSweep(t *testing.T, opts mpi.RunOptions, fn func(*mpi.Rank) error, each func(rank int, c cutCall, fk *mpi.Fork)) mpi.RunResult {
	t.Helper()
	log := &callLog{calls: make([][]cutCall, opts.NumRanks)}
	prof := opts
	prof.Hook = log
	mpi.Run(prof, fn)
	rec := opts
	rec.Record = true
	golden := mpi.Run(rec, fn)
	if !golden.Trace.Forkable() {
		t.Fatalf("trace not forkable: %s", golden.Trace.Reason())
	}
	for rank, calls := range log.calls {
		for _, c := range calls {
			fk := golden.Trace.Fork(rank, c.site, c.inv)
			if fk == nil {
				t.Fatalf("no fork for rank %d %v invocation %d", rank, c.typ, c.inv)
			}
			each(rank, c, fk)
		}
	}
	return golden
}

// resumeSweep runs every fork of fn's trace that resumes some rank, under a
// fixed set of faults — every target of the faulted call at resumeBits —
// once resumed and once replayed from t=0. It returns the faults whose two
// runs differ and how many forks resumed.
func resumeSweep(t *testing.T, ranks int, fn func(*mpi.Rank) error) (diffs []string, resumed int) {
	t.Helper()
	opts := mpi.RunOptions{NumRanks: ranks, Seed: 5}
	forkSweep(t, opts, fn, func(rank int, c cutCall, fk *mpi.Fork) {
		if fk.Resumes() == 0 {
			return // every rank replays from t=0 either way
		}
		resumed++
		for _, target := range fault.TargetsFor(c.typ) {
			for _, bit := range resumeBits(c.widths.Of(target)) {
				f := fault.Fault{Rank: rank, Site: c.site, Invocation: c.inv, Target: target, Bit: bit}
				run := func(fk *mpi.Fork) (mpi.RunResult, []mpi.Books) {
					o := opts
					o.Hook, o.Fork = fault.NewInjector(nil, f), fk
					return runBooked(o, fn)
				}
				a, ba := run(fk)
				b, bb := run(fk.WithoutResume())
				if d := resumeDiff(a, b, ba, bb); d != "" {
					diffs = append(diffs, fmt.Sprintf("rank %d %v inv %d %v bit %d: %s", rank, c.typ, c.inv, target, bit, d))
				}
			}
		}
	})
	return diffs, resumed
}

// TestResumeMatchesReplay: for mg, lu and minimd at 4 and 8 ranks and an
// application that draws from Rand across its checkpoints, every fork that
// resumes a rank ends as the same fork replayed from t=0 does.
func TestResumeMatchesReplay(t *testing.T) {
	type tc struct {
		name  string
		ranks int
		fn    func(*mpi.Rank) error
	}
	var cases []tc
	for _, ranks := range []int{4, 8} {
		cases = append(cases,
			tc{fmt.Sprintf("mg/%d", ranks), ranks, appMain(mg.New(), ranks, 2)},
			tc{fmt.Sprintf("lu/%d", ranks), ranks, appMain(lu.New(), ranks, 3)},
			tc{fmt.Sprintf("minimd/%d", ranks), ranks, appMain(minimd.New(), ranks, 2)})
	}
	cases = append(cases, tc{"rand/4", 4, randApp(false)})
	for _, c := range cases {
		if (testing.Short() || mpi.RaceEnabled) && c.ranks > 4 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			diffs, resumed := resumeSweep(t, c.ranks, c.fn)
			if resumed == 0 {
				t.Fatal("no fork resumed a rank: the sweep compared nothing")
			}
			for i, d := range diffs {
				if i == 5 {
					t.Fatalf("... %d differences in all", len(diffs))
				}
				t.Errorf("resumed run differs from the replay from t=0: %s", d)
			}
			t.Logf("%d forks resumed", resumed)
		})
	}
}

// TestResumeNegativeControl: a checkpoint that leaves out a value the rest
// of the run reads is found by the sweep.
func TestResumeNegativeControl(t *testing.T) {
	diffs, _ := resumeSweep(t, 4, randApp(true))
	if len(diffs) == 0 {
		t.Fatal("the sweep did not tell a checkpoint that forgets the running value from a whole one")
	}
}

// TestDecidedMatchesReplay: a forked trial of mg, lu or minimd at 8 ranks
// whose faulted rank fails before communicating is decided with the other
// ranks never started (fork.go, part 5); run in full from t=0, the same
// fault must be classified the same, with the same first error, deadlock
// and timeout flags, and the same faulted rank (decidedDiff). Every fork is
// tried under a fixed sample of the allparams policy's faults.
func TestDecidedMatchesReplay(t *testing.T) {
	faultsPerFork := 8
	if testing.Short() || mpi.RaceEnabled {
		faultsPerFork = 2
	}
	for _, tc := range []struct {
		name  string
		fn    func(*mpi.Rank) error
		floor int // decided trials the sweep must see per fault drawn at each fork
	}{
		{"mg", appMain(mg.New(), 8, 2), 5},
		{"lu", appMain(lu.New(), 8, 3), 10},
		{"minimd", appMain(minimd.New(), 8, 2), 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := mpi.RunOptions{NumRanks: 8, Seed: 5}
			type pair struct {
				f            fault.Fault
				forked, full mpi.RunResult
			}
			var decided []pair
			trials := 0
			rng := rand.New(rand.NewSource(1))
			golden := forkSweep(t, opts, tc.fn, func(rank int, c cutCall, fk *mpi.Fork) {
				for range faultsPerFork {
					f := fault.RandomFault(rng, rank, c.site, c.inv, c.typ)
					run := func(fk *mpi.Fork) mpi.RunResult {
						o := opts
						o.Hook, o.Fork = fault.NewInjector(nil, f), fk
						res := mpi.Run(o, tc.fn)
						if d := res.FlagsDisagree(); d != "" {
							t.Errorf("%v (forked %t): %s", f, fk != nil, d)
						}
						return res
					}
					trials++
					if forked := run(fk); forked.Provenance == mpi.Decided {
						decided = append(decided, pair{f, forked, run(nil)})
					}
				}
			})
			for _, p := range decided {
				d := decidedDiff(p.forked, p.full, p.f.Rank)
				if a, b := classify.Classify(golden, p.forked), classify.Classify(golden, p.full); a != b {
					d = fmt.Sprintf("class %v vs %v", a, b)
				}
				if d != "" {
					t.Errorf("%v: decided run differs from the full replay: %s", p.f, d)
				}
			}
			if floor := tc.floor * faultsPerFork; len(decided) < floor {
				t.Fatalf("%d of %d trials decided, want at least %d: the oracle compared too little", len(decided), trials, floor)
			}
			t.Logf("%d of %d trials decided", len(decided), trials)
		})
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
		log := &callLog{calls: make([][]cutCall, 4)}
		prof := opts
		prof.Hook = log
		mpi.Run(prof, fn)
		rec := opts
		rec.Record = true
		trace := mpi.Run(rec, fn).Trace
		last := log.calls[0][len(log.calls[0])-1]
		fk := trace.Fork(0, last.site, last.inv)
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
