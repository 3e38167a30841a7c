package mpi_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
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
