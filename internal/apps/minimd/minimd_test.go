package minimd

import (
	"math"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

func runMD(t *testing.T, cfg apps.Config, hook mpi.Hook) mpi.RunResult {
	t.Helper()
	app := New()
	return mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Hook: hook, Timeout: 30 * time.Second},
		func(r *mpi.Rank) error { return app.Main(r, cfg) })
}

func TestMiniMDCleanRunConservesAtoms(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		cfg := apps.Config{Ranks: ranks, Scale: 16, Iters: 5, Seed: 12}
		res := runMD(t, cfg, nil)
		if err := res.FirstError(); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		out := res.Ranks[0].Values
		if len(out) != 3 {
			t.Fatalf("root output = %v", out)
		}
		wantAtoms := float64(16 * ranks)
		if out[1] != wantAtoms || out[2] != wantAtoms {
			t.Fatalf("atom count = %v/%v, want %v", out[1], out[2], wantAtoms)
		}
		if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
			t.Fatalf("total energy = %v", out[0])
		}
	}
}

func TestMiniMDCollectiveProfileMatchesLAMMPS(t *testing.T) {
	// The paper's LAMMPS observations: MPI_Allreduce dominates the
	// collective mix (>84% of calls) and ~40% of the Allreduce calls are
	// error handling.
	cfg := apps.Config{Ranks: 4, Scale: 16, Iters: 6, Seed: 12}
	col := profile.NewCollector(cfg.Ranks)
	res := runMD(t, cfg, col)
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	var allreduce, allreduceErr, total int
	for _, s := range prof.SitesOnRank(1) {
		total += s.Invocations()
		if s.Type == mpi.CollAllreduce {
			allreduce += s.Invocations()
			for _, iv := range s.Invs {
				if iv.ErrHandling {
					allreduceErr++
				}
			}
		}
	}
	arShare := float64(allreduce) / float64(total)
	if arShare < 0.75 {
		t.Fatalf("Allreduce share = %.2f, want > 0.75 (paper: >0.84)", arShare)
	}
	errShare := float64(allreduceErr) / float64(allreduce)
	if errShare < 0.30 || errShare > 0.55 {
		t.Fatalf("error-handling Allreduce share = %.2f, want ~0.40 (paper: 0.4032)", errShare)
	}
}

func TestMiniMDLostAtomDetection(t *testing.T) {
	// Corrupt the broadcast timestep on one rank so its atoms fly several
	// slabs per step: the lost-atom Allreduce check must abort the run
	// with LAMMPS's error message.
	cfg := apps.Config{Ranks: 4, Scale: 16, Iters: 6, Seed: 12}
	hook := &deckBomb{}
	res := runMD(t, cfg, hook)
	err := res.FirstError()
	appErr, ok := err.(mpi.AppError)
	if !ok {
		t.Fatalf("exploded trajectory should be caught by error handling, got %v", err)
	}
	if appErr.Message == "" {
		t.Fatal("empty abort message")
	}
}

// deckBomb corrupts the timestep in rank 1's received input deck, the kind
// of silent corruption a bcast data fault produces.
type deckBomb struct {
	mpi.NopHook
}

func (h *deckBomb) AfterCollective(c *mpi.CollectiveCall) {
	if c.Rank == 1 && c.Type == mpi.CollBcast && c.Invocation == 0 && c.Args.Send.Len() >= 64 {
		c.Args.Send.SetFloat64(2, 50.0) // dt: 0.002 -> 50
	}
}

func TestMiniMDGhostExchangeSymmetry(t *testing.T) {
	// With a deterministic seed the total energy must be identical across
	// repeated runs and independent of wall-clock scheduling.
	cfg := apps.Config{Ranks: 4, Scale: 12, Iters: 4, Seed: 3}
	r1 := runMD(t, cfg, nil)
	r2 := runMD(t, cfg, nil)
	if err := r1.FirstError(); err != nil {
		t.Fatal(err)
	}
	if r1.Ranks[0].Values[0] != r2.Ranks[0].Values[0] {
		t.Fatalf("energy differs across runs: %v vs %v", r1.Ranks[0].Values[0], r2.Ranks[0].Values[0])
	}
}

func TestWrapAndOwner(t *testing.T) {
	if got := wrap(5, 4); got != 1 {
		t.Errorf("wrap(5,4) = %v", got)
	}
	if got := wrap(-1, 4); got != 3 {
		t.Errorf("wrap(-1,4) = %v", got)
	}
	if got := wrap(-1e300, 4); got < 0 || got >= 4 {
		t.Errorf("wrap of huge negative = %v", got)
	}
	if !math.IsNaN(wrap(math.NaN(), 4)) {
		t.Errorf("wrap(NaN) should stay NaN")
	}
	if ownerOf(3.5, 2, 4) != 1 {
		t.Errorf("ownerOf(3.5)")
	}
	if ownerOf(math.NaN(), 2, 4) != -1 || ownerOf(math.Inf(1), 2, 4) != -1 {
		t.Errorf("non-finite coordinates should have no owner")
	}
	if ownerOf(-0.1, 2, 4) != -1 || ownerOf(8.0, 2, 4) != -1 {
		t.Errorf("out-of-box coordinates should have no owner")
	}
}

func TestMinImage(t *testing.T) {
	if got := minImage(3, 4); got != -1 {
		t.Errorf("minImage(3,4) = %v", got)
	}
	if got := minImage(-3, 4); got != 1 {
		t.Errorf("minImage(-3,4) = %v", got)
	}
	if got := minImage(1, 4); got != 1 {
		t.Errorf("minImage(1,4) = %v", got)
	}
}

func TestUnpackAtoms(t *testing.T) {
	atoms := unpackAtoms(nil, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if len(atoms) != 2 || atoms[1].z != 9 || atoms[0].vx != 4 {
		t.Fatalf("unpack = %+v", atoms)
	}
	// Truncated payloads drop the partial atom.
	if got := unpackAtoms(atoms[:1], make([]float64, 7)); len(got) != 2 || got[0].x != 1 {
		t.Fatalf("partial atom should be dropped: %d", len(got))
	}
}
