// Package lu implements a miniature of the NAS Parallel Benchmarks LU
// kernel: an SSOR solver with pipelined wavefront sweeps over a strip
// decomposition. The communication skeleton matches NPB LU: a Bcast of the
// problem parameters during setup, point-to-point boundary exchanges that
// pipeline the lower and upper triangular sweeps, an MPI_Allreduce of the
// residual norms (RSDNM) every iteration — the collective the paper's
// Fig. 1 injects into — and a timing Reduce at the end.
//
// Arrays are statically sized from the compile-time problem class; the
// broadcast edge length, iteration count and relaxation factor drive the
// loops, so corrupted broadcasts crash on the static arrays or silently
// solve a different problem.
package lu

import (
	"math"
	"slices"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// LU is the SSOR workload.
type LU struct{}

// New returns the LU workload.
func New() apps.App { return LU{} }

// Name implements apps.App.
func (LU) Name() string { return "lu" }

// DefaultConfig implements apps.App: Scale is the grid edge; the grid is
// Scale x Scale distributed in row strips.
func (LU) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 16, Scale: 64, Iters: 5, Seed: 141421}
}

// Check implements apps.Checker: the pipeline passes on each strip's last
// row, so each rank needs one; no rank indexes a global row, so strips of
// Scale/Ranks rows need not tile the grid.
func (a LU) Check(cfg apps.Config) error {
	return apps.Require(a, cfg, cfg.Scale >= cfg.Ranks,
		"needs a scale (the grid edge) of at least ranks: a row per rank")
}

// state is what an SSOR iteration reads of the run before it, checkpointed
// at the top of every iteration but the first, again just before the
// iteration's residual-norm Allreduce, and once before the end phase: the
// broadcast input deck, the iteration to run, the last residual norm, the
// solution and the right-hand side. At the second checkpoint it also holds
// the local norms the Allreduce reduces, and atNorm, which tells a run
// resumed there to skip the iteration's sweeps and go straight to its
// collectives.
type state struct {
	n, iters, it int
	omega, rsdnm float64
	local        [2]float64
	atNorm       bool
	u, b         []float64
}

// Clone implements mpi.State. Nothing writes the right-hand side after the
// input phase, which no resumed run repeats, so clones share it.
func (s *state) Clone() mpi.State {
	c := *s
	c.u = slices.Clone(s.u)
	return &c
}

// Equal implements mpi.State; a clone's shared right-hand side compares
// equal at once.
func (s *state) Equal(o mpi.State) bool {
	t := o.(*state)
	return s.n == t.n && s.iters == t.iters && s.it == t.it && s.atNorm == t.atNorm &&
		mpi.EqualBits([]float64{s.omega, s.rsdnm, s.local[0], s.local[1]}, []float64{t.omega, t.rsdnm, t.local[0], t.local[1]}) &&
		mpi.EqualBits(s.u, t.u) && mpi.EqualBits(s.b, t.b)
}

// Main implements apps.App.
func (LU) Main(r *mpi.Rank, cfg apps.Config) error {
	p := r.NumRanks()

	// Compile-time problem class.
	nStatic, itersStatic := cfg.Scale, cfg.Iters

	// A forked run starts from the last checkpoint before its cut, if any.
	s, resumed := r.Resume().(*state)
	if !resumed {
		// --- init phase: broadcast the input deck ---
		r.SetPhase(mpi.PhaseInit)
		params := r.BcastFloat64s([]float64{float64(nStatic), float64(itersStatic), 1.2}, 0, mpi.CommWorld)
		s = &state{n: int(params[0]), iters: int(params[1]), omega: params[2]}
		r.Barrier(mpi.CommWorld)

		// Static arrays.
		s.u = mpi.Static[float64](r, (nStatic/p)*nStatic, (nStatic/p)*nStatic)
		s.b = mpi.Static[float64](r, (nStatic/p)*nStatic, (nStatic/p)*nStatic)

		// --- input phase: random right-hand side, zero initial guess ---
		r.SetPhase(mpi.PhaseInput)
		r.Tick(s.n/p*s.n*2 + 10)
		rng := r.SeededRand(cfg.Seed + int64(r.ID())*3571)
		for i := range s.b {
			s.b[i] = rng.Float64() - 0.5
		}
	}
	n, omega, rows := s.n, s.omega, s.n/p
	u, b := s.u, s.b
	// The two boundary rows double as the pipeline's receive buffers: the
	// strip at either end of the pipeline never receives into its outer
	// one, which therefore stays the zero boundary row. Every other rank
	// receives into a row before it reads it, so the rows are scratch.
	south := mpi.Static[float64](r, nStatic, nStatic)
	north := mpi.Static[float64](r, nStatic, nStatic)
	at := func(y, x int) int { return y*n + x }

	// --- compute phase: pipelined SSOR sweeps ---
	r.SetPhase(mpi.PhaseCompute)
	for ; s.it < s.iters; s.it++ {
		if !s.atNorm { // a run resumed at the norm has swept the iteration
			if s.it > 0 { // resuming at the first iteration would skip only the input phase
				r.Checkpoint(s)
			}
			// Work-budget charge for both sweeps and the norm computation.
			r.Tick(rows*n*12 + 200)

			// Lower sweep: dependencies flow from smaller y and x, so the
			// pipeline runs rank 0 -> rank p-1.
			if r.ID() > 0 {
				south = r.RecvFloat64sInto(mpi.CommWorld, r.ID()-1, 31, south)
			}
			for y := 0; y < rows; y++ {
				for x := 1; x < n-1; x++ {
					var below float64
					if y == 0 {
						below = south[x]
					} else {
						below = u[at(y-1, x)]
					}
					v := (u[at(y, x-1)] + below + b[at(y, x)]) / 4.0
					u[at(y, x)] += omega * (v - u[at(y, x)])
				}
			}
			if r.ID() < p-1 {
				r.SendFloat64s(mpi.CommWorld, r.ID()+1, 31, u[at(rows-1, 0):at(rows-1, 0)+n])
			}

			// Upper sweep: dependencies flow from larger y and x, pipeline
			// runs rank p-1 -> rank 0.
			if r.ID() < p-1 {
				north = r.RecvFloat64sInto(mpi.CommWorld, r.ID()+1, 32, north)
			}
			for y := rows - 1; y >= 0; y-- {
				for x := n - 2; x >= 1; x-- {
					var abovev float64
					if y == rows-1 {
						abovev = north[x]
					} else {
						abovev = u[at(y+1, x)]
					}
					v := (u[at(y, x+1)] + abovev + b[at(y, x)]) / 4.0
					u[at(y, x)] += omega * (v - u[at(y, x)])
				}
			}
			if r.ID() > 0 {
				r.SendFloat64s(mpi.CommWorld, r.ID()-1, 32, u[:n])
			}

			// This strip's share of the residual norms.
			s.local = [2]float64{}
			for y := 0; y < rows; y++ {
				for x := 1; x < n-1; x++ {
					d := b[at(y, x)] - u[at(y, x)]
					s.local[0] += d * d
					s.local[1] += math.Abs(d)
				}
			}
			s.atNorm = true
			r.Checkpoint(s)
		}
		s.atNorm = false

		// RSDNM: the residual-norm Allreduce of NPB LU (paper Fig. 1).
		norms := r.AllreduceFloat64s(s.local[:], mpi.OpSum, mpi.CommWorld)
		s.rsdnm = math.Sqrt(norms[0])

		// Divergence check: LU verifies its norms stay finite.
		r.ErrCheck(func() {
			flag := int64(0)
			if math.IsNaN(s.rsdnm) || s.rsdnm > 1e8 {
				flag = 1
			}
			if r.AllreduceInt64(flag, mpi.OpLor, mpi.CommWorld) != 0 {
				r.Abort("LU residual norm diverged")
			}
		})
	}

	r.Checkpoint(s)

	// --- end phase: printed verification + timing reduce on the root ---
	r.SetPhase(mpi.PhaseEnd)
	var usum float64
	for _, v := range u {
		usum += v
	}
	total := r.ReduceFloat64s([]float64{usum}, mpi.OpSum, 0, mpi.CommWorld)
	// NPB LU reduces the per-rank timer maxima to the root; our
	// deterministic stand-in reduces the iteration count.
	tmax := r.ReduceFloat64s([]float64{float64(s.iters)}, mpi.OpMax, 0, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(apps.RoundSig(s.rsdnm, 9), apps.RoundSig(total[0], 9), tmax[0])
	}
	r.Barrier(mpi.CommWorld)
	return nil
}
