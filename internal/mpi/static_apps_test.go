package mpi_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/ft"
	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// TestStaticSparesRecordedCheckpoints: a recording run's static arrays are
// plain allocations, never the shell's. mg's and lu's checkpoints share
// the right-hand side with the run that took them, so a golden run whose
// arrays went back to its shell would see the trials forked from it
// overwrite its checkpoints. After each of 200 pooled forked trials of
// random faults, every checkpoint of the golden run must still equal that
// of a recording made with pooling off, which shares no array with them.
func TestStaticSparesRecordedCheckpoints(t *testing.T) {
	trials := 200
	if testing.Short() || mpi.RaceEnabled {
		trials = 40
	}
	for name, fn := range map[string]func(*mpi.Rank) error{
		"mg": appMain(mg.New(), 4, 16, 3), "lu": appMain(lu.New(), 4, 16, 4),
	} {
		t.Run(name, func(t *testing.T) {
			opts := mpi.RunOptions{NumRanks: 4, Seed: 5}
			want, _ := record(t, reference(opts), fn)
			golden, calls := record(t, opts, fn)
			same := func() string {
				states := 0
				for r := 0; r < opts.NumRanks; r++ {
					got, want := golden.Trace.CheckpointStates(r), want.Trace.CheckpointStates(r)
					if len(got) != len(want) {
						return fmt.Sprintf("rank %d took %d checkpoints, the reference %d", r, len(got), len(want))
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							return fmt.Sprintf("rank %d's checkpoint %d differs from the reference's", r, i)
						}
					}
					states += len(got)
				}
				if states == 0 {
					return "the golden run took no checkpoint"
				}
				return ""
			}
			if d := same(); d != "" {
				t.Fatalf("before any trial: %s", d)
			}
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < trials; k++ {
				rank := rng.Intn(len(calls))
				c := calls[rank][rng.Intn(len(calls[rank]))]
				f := fault.RandomFault(rng, rank, c.site, c.inv, c.typ)
				runFault(t, opts, golden.Trace.Fork(rank, c.site, c.inv), f, fn)
				if d := same(); d != "" {
					t.Fatalf("after trial %d (%v): %s", k, f, d)
				}
			}
		})
	}
}

// TestForkedMiniMDTrialBytes pins what one forked 32-rank miniMD trial
// allocates: a data fault in the input deck's broadcast, after which all
// 32 ranks run every time step live. Its exchange scratch is class-sized
// static memory (mpi.Static) and costs a trial nothing: the trial reads
// about 123 KB, where it read 675 KB when every trial made its scratch.
func TestForkedMiniMDTrialBytes(t *testing.T) {
	if mpi.RaceEnabled {
		t.Skip("race instrumentation allocates; budgets are meaningless under -race")
	}
	const budgetKB = 200
	cfg, err := apps.ConfigFor(minimd.New(), 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iters = 2
	fn := func(r *mpi.Rank) error { return minimd.New().Main(r, cfg) }
	opts := mpi.RunOptions{NumRanks: 32, Seed: 5}
	golden, calls := record(t, opts, fn)
	c := calls[0][0]
	if c.typ != mpi.CollBcast {
		t.Fatalf("miniMD's first call is %v, not the input deck's broadcast", c.typ)
	}
	// A low mantissa bit of the time step: every rank runs every step live.
	f := fault.Fault{Rank: 0, Site: c.site, Invocation: c.inv, Target: fault.TargetSendBuf, Bit: 2*64 + 40}
	fk := golden.Trace.Fork(0, c.site, c.inv)
	trial := func() mpi.RunResult { return runFault(t, opts, fk, f, fn).RunResult }
	// With the collector held off, the shell pool keeps the warmed shell.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if res := trial(); res.Provenance != mpi.NotKilled || res.FirstError() != nil {
		t.Fatalf("the pinned trial ended %q: %v; it must run to the end", res.Provenance, res.FirstError())
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		trial()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	t.Logf("forked 32-rank miniMD trial: %.0f KB, %.0f allocations", kb, float64(after.Mallocs-before.Mallocs)/runs)
	if kb > budgetKB {
		t.Errorf("a forked 32-rank miniMD trial allocates %.0f KB; budget %d KB", kb, budgetKB)
	}
}

// TestForksResumeAtTheirCollective: mg, lu and miniMD checkpoint just before
// each iteration's first collective as well as at its top, so a fork cut at
// any collective resumes every rank past the iteration's point-to-point
// traffic. No rank replays a receive between the checkpoint it resumes from
// and its cut, and no message is prestocked.
func TestForksResumeAtTheirCollective(t *testing.T) {
	for _, app := range []apps.App{mg.New(), lu.New(), minimd.New()} {
		t.Run(app.Name(), func(t *testing.T) {
			cfg, err := apps.ConfigFor(app, 8)
			if err != nil {
				t.Fatal(err)
			}
			if app.Name() == "minimd" {
				cfg.Iters = 2
			}
			opts := mpi.RunOptions{NumRanks: cfg.Ranks, Seed: 5}
			golden, calls := record(t, opts, func(r *mpi.Rank) error { return app.Main(r, cfg) })
			for rank := 0; rank < 2; rank++ {
				for i, c := range calls[rank] {
					fk := golden.Trace.Fork(rank, c.site, c.inv)
					if fk == nil {
						t.Fatalf("rank %d's call %d (%v) does not fork", rank, i, c.typ)
					}
					if recvs, prestocked := fk.ReplayedRecvs(); recvs > 0 || prestocked > 0 {
						t.Errorf("fork at rank %d's call %d (%v, invocation %d): %d receives replayed past the resume checkpoints, %d prestocked",
							rank, i, c.typ, c.inv, recvs, prestocked)
					}
				}
			}
		})
	}
}

// TestTapeKeepsWhatForksRead: a golden tape keeps the receive payloads some
// fork can read and drops the rest, and no fork cut at any CommWorld
// instance reads one it dropped. mg, lu and miniMD checkpoint before each
// iteration's first collective, so no fork of theirs reads a receive
// payload; is never checkpoints, so its forks replay every receive from
// t=0; ft sends none. A fork of theirs replayed from t=0 instead reads
// dropped payloads and runs as a Divergence. The controls keep every
// payload: ForkTestApp and randApp prestock messages sent before a
// collective and received after it, and bcastThenSend sends a message
// after an instance its receiver has not entered, which moves a fork's cut
// before a checkpoint.
func TestTapeKeepsWhatForksRead(t *testing.T) {
	const (
		none = iota // the tape keeps no receive payload
		all         // the tape keeps every receive payload
		zero        // the run receives nothing
	)
	type tapeCase struct {
		name  string
		ranks int
		fn    func(*mpi.Rank) error
		keeps int
	}
	cases := []tapeCase{
		{"fork", 4, mpi.ForkTestApp, all},
		{"rand", 4, randApp(false), all},
		{"bcast-then-send", 2, bcastThenSend, all},
	}
	for _, c := range []struct {
		app   apps.App
		ranks int
		keeps int
	}{{mg.New(), 8, none}, {mg.New(), 32, none}, {lu.New(), 8, none}, {minimd.New(), 8, none}, {is.New(), 8, all}, {ft.New(), 8, zero}} {
		if c.ranks > 8 && (testing.Short() || mpi.RaceEnabled) {
			continue
		}
		cfg, err := apps.ConfigFor(c.app, c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if c.app.Name() == "minimd" {
			cfg.Iters = 2
		}
		app := c.app
		cases = append(cases, tapeCase{fmt.Sprintf("%s/%d", app.Name(), c.ranks), c.ranks, func(r *mpi.Rank) error { return app.Main(r, cfg) }, c.keeps})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			golden, calls := record(t, mpi.RunOptions{NumRanks: c.ranks, Seed: 5}, c.fn)
			kept, total := golden.Trace.RecvBytes()
			t.Logf("%v keeps %d of %d receive payload bytes", golden.Trace, kept, total)
			want := 0
			if c.keeps == all {
				want = total
			}
			if kept != want || (total == 0) != (c.keeps == zero) {
				t.Errorf("the tape keeps %d of %d receive payload bytes; want %d of a nonzero total, or a zero total for a run that receives nothing", kept, total, want)
			}
			for i, call := range calls[0] {
				fk := golden.Trace.Fork(0, call.site, call.inv)
				if fk == nil {
					t.Fatalf("rank 0's call %d (%v) does not fork", i, call.typ)
				}
				if lost := fk.Lost(); lost != "" {
					t.Errorf("the fork at rank 0's call %d (%v): %s", i, call.typ, lost)
				}
			}
			if c.keeps == none {
				// Replayed from t=0, a fork reads payloads the tape dropped:
				// its run is a Divergence, never an outcome.
				last := calls[0][len(calls[0])-1]
				o := mpi.RunOptions{NumRanks: c.ranks, Seed: 5, Fork: golden.Trace.Fork(0, last.site, last.inv).WithoutResume()}
				if res := mpi.Run(o, c.fn); res.Divergence == nil || !strings.Contains(res.Divergence.Error(), "dropped from the tape") {
					t.Errorf("a fork replayed from t=0 over dropped payloads ended %q, divergence %v", res.Provenance, res.Divergence)
				}
			}
		})
	}
	runRows(t, []trialRow{sweptRow("bcast-then-send/forks", 2, bcastThenSend, forked, resumed, decided)})
}

// bcastThenSend is the tape's late-message control. Root 0 broadcasts and
// then sends; rank 1 receives that message before its own Bcast, after
// one that rank 0 sent before it. A fork at the Bcast cuts rank 1 before
// the late receive and resumes it from its first checkpoint, so it replays
// the early one, which rank 1's second checkpoint, taken before its Bcast,
// would otherwise make droppable.
func bcastThenSend(r *mpi.Rank) error {
	const W = mpi.CommWorld
	s, resumed := r.Resume().(*ckptState)
	if !resumed {
		s = &ckptState{}
	}
	if s.it == 0 {
		r.Checkpoint(s)
		if r.ID() == 0 {
			r.SendFloat64s(W, 1, 1, []float64{3})
		} else {
			s.acc = r.RecvFloat64s(W, 0, 1)[0] + r.RecvFloat64s(W, 0, 2)[0]
		}
		s.it = 1
		r.Checkpoint(s)
	}
	v := r.BcastFloat64s([]float64{s.acc + 1}, 0, W)
	if r.ID() == 0 {
		r.SendFloat64s(W, 1, 2, v)
	}
	r.ReportResult(s.acc, v[0])
	return nil
}
