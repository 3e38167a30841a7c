// Package mg implements a miniature of the NAS Parallel Benchmarks MG
// kernel: V-cycle multigrid for a 3-D Poisson problem on a z-slab
// decomposition. The communication skeleton matches NPB MG: point-to-point
// halo exchanges around every smoothing step, an MPI_Allreduce of the
// residual norm after each V-cycle, a parameter Bcast during setup and a
// final verification Reduce.
//
// Arrays are statically sized from the compile-time problem class (the
// Config); the broadcast grid edge and cycle count drive loop bounds and
// exchange sizes, so corrupted broadcasts index off the static grids
// (SEG_FAULT) or silently compute on a different problem (WRONG_ANS on the
// root's printed norm).
package mg

import (
	"math"
	"slices"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// MG is the multigrid workload.
type MG struct{}

// New returns the MG workload.
func New() apps.App { return MG{} }

// Name implements apps.App.
func (MG) Name() string { return "mg" }

// DefaultConfig implements apps.App: Scale is the fine-grid edge.
func (MG) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 16, Scale: 32, Iters: 4, Seed: 161803}
}

// Check implements apps.Checker: a power-of-two edge and an even number of
// planes per rank, so restriction stays on-rank and no coarse slab is empty.
func (a MG) Check(cfg apps.Config) error {
	return apps.Require(a, cfg, cfg.Ranks > 0 && cfg.Scale&(cfg.Scale-1) == 0 && cfg.Scale%(2*cfg.Ranks) == 0,
		"needs a power-of-two scale (the grid edge) that is a multiple of 2·ranks")
}

// grid is one level's distributed field. The backing arrays are sized once
// (statically); n and planes are the runtime dimensions used for indexing.
type grid struct {
	n      int // plane edge used for indexing
	planes int // local z-planes used for indexing
	u      []float64
	b      []float64 // right-hand side
	res    []float64 // residual workspace
	next   []float64 // smooth's sweep target; cells no sweep writes stay 0
	below  []float64 // halo plane received from the rank below
	above  []float64 // halo plane received from the rank above
}

// newGrid allocates a level for the static problem class — edge x edge
// planes, slab of them per rank — indexed with the runtime n and planes,
// in the rank's static memory (mpi.Static). u and b, when not nil, are the
// level's solution and right-hand side, taken over from a checkpoint.
func newGrid(r *mpi.Rank, n, planes, edge, slab int, u, b []float64) *grid {
	plane, cells := edge*edge, slab*edge*edge
	if u == nil {
		u, b = mpi.Static[float64](r, cells, cells), mpi.Static[float64](r, cells, cells)
	}
	return &grid{
		n: n, planes: planes,
		u:     u,
		b:     b,
		res:   mpi.Static[float64](r, cells, cells),
		next:  mpi.Static[float64](r, cells, cells),
		below: mpi.Static[float64](r, plane, plane),
		above: mpi.Static[float64](r, plane, plane),
	}
}

func (g *grid) at(zl, y, x int) int { return (zl*g.n+y)*g.n + x }

// state is what a V-cycle reads of the run before it, checkpointed at the
// top of every cycle but the first, again just before the cycle's
// residual-norm Allreduce, and once before the end phase: the broadcast
// runtime parameters, the cycle to run, the last residual norm and the fine
// level's solution and right-hand side. At the second checkpoint it also
// holds the local sum the Allreduce reduces, and atNorm, which tells a run
// resumed there to skip the cycle's compute and go straight to its
// collectives. Everything else on both levels is scratch a cycle writes
// before it reads.
type state struct {
	n, cycles, c int
	rnorm, local float64
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
	return s.n == t.n && s.cycles == t.cycles && s.c == t.c && s.atNorm == t.atNorm &&
		mpi.EqualBits([]float64{s.rnorm, s.local}, []float64{t.rnorm, t.local}) &&
		mpi.EqualBits(s.u, t.u) && mpi.EqualBits(s.b, t.b)
}

// Main implements apps.App.
func (MG) Main(r *mpi.Rank, cfg apps.Config) error {
	p := r.NumRanks()

	// Compile-time problem class.
	nStatic, cyclesStatic := cfg.Scale, cfg.Iters

	// A forked run starts from the last checkpoint before its cut, if any.
	s, resumed := r.Resume().(*state)
	if !resumed {
		// --- init phase: broadcast runtime parameters ---
		r.SetPhase(mpi.PhaseInit)
		params := r.BcastInt64s([]int64{int64(nStatic), int64(cyclesStatic)}, 0, mpi.CommWorld)
		s = &state{n: int(params[0]), cycles: int(params[1])}
		r.Barrier(mpi.CommWorld)
	}
	n := s.n

	// Static allocations; runtime dimensions for indexing.
	fine := newGrid(r, n, n/p, nStatic, nStatic/p, s.u, s.b)
	coarse := newGrid(r, n/2, n/(2*p), nStatic/2, nStatic/(2*p), nil, nil)
	s.u, s.b = fine.u, fine.b

	if !resumed {
		// --- input phase: sparse random right-hand side (NPB MG style) ---
		r.SetPhase(mpi.PhaseInput)
		r.Tick(n*n*max(fine.planes, 1)*2 + 10)
		rng := r.SeededRand(cfg.Seed) // same stream everywhere: global charges
		for k := 0; k < 20; k++ {
			x := 1 + rng.Intn(max(n-2, 1))
			y := 1 + rng.Intn(max(n-2, 1))
			z := rng.Intn(max(n, 1))
			val := 1.0
			if k%2 == 1 {
				val = -1.0
			}
			if fine.planes > 0 && z/fine.planes == r.ID() {
				fine.b[fine.at(z%fine.planes, y, x)] = val
			}
		}
	}

	// --- compute phase: V-cycles with residual monitoring ---
	r.SetPhase(mpi.PhaseCompute)
	for ; s.c < s.cycles; s.c++ {
		if !s.atNorm { // a run resumed at the norm has computed the cycle
			if s.c > 0 { // resuming at the first cycle would skip only the input phase
				r.Checkpoint(s)
			}
			// Work-budget charge for the V-cycle's smoothing sweeps.
			r.Tick(fine.planes*n*n*60 + 200)

			// pre-smooth, restrict, coarse smooth, prolongate, post-smooth
			smooth(r, fine, 2)
			residual(r, fine)
			restrict(fine, coarse)
			for i := range coarse.u {
				coarse.u[i] = 0
			}
			smooth(r, coarse, 4)
			prolongate(coarse, fine)
			smooth(r, fine, 2)

			residual(r, fine)
			s.local = 0
			for _, v := range fine.res {
				s.local += v * v
			}
			s.atNorm = true
			r.Checkpoint(s)
		}
		s.atNorm = false
		s.rnorm = math.Sqrt(r.AllreduceFloat64(s.local, mpi.OpSum, mpi.CommWorld))

		// Divergence detection: MG's error handling.
		r.ErrCheck(func() {
			flag := int64(0)
			if math.IsNaN(s.rnorm) || s.rnorm > 1e6 {
				flag = 1
			}
			if r.AllreduceInt64(flag, mpi.OpLor, mpi.CommWorld) != 0 {
				r.Abort("MG residual diverged")
			}
		})
	}

	r.Checkpoint(s)

	// --- end phase: the printed verification norm on the root ---
	r.SetPhase(mpi.PhaseEnd)
	var usum float64
	for _, v := range fine.u {
		usum += v
	}
	got := r.ReduceFloat64s([]float64{usum}, mpi.OpSum, 0, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(apps.RoundSig(s.rnorm, 9), apps.RoundSig(got[0], 9))
	}
	r.Barrier(mpi.CommWorld)
	return nil
}

// haloExchange sends the top plane to the rank above and the bottom plane
// to the rank below (periodic in z) and returns the neighbours' boundary
// planes (below, above), received into the grid's halo buffers. Each has
// the length its sender gave it; one that outgrows the static buffer comes
// back in a slice of its own.
func haloExchange(r *mpi.Rank, g *grid) (below, above []float64) {
	p := r.NumRanks()
	topPlane := g.u[g.at(g.planes-1, 0, 0) : g.at(g.planes-1, 0, 0)+g.n*g.n]
	bottomPlane := g.u[:g.n*g.n]
	if p == 1 {
		return append(g.below[:0], topPlane...), append(g.above[:0], bottomPlane...)
	}
	up := (r.ID() + 1) % p
	down := (r.ID() - 1 + p) % p
	// Tag by direction; even/odd ordering is unnecessary because sends are
	// buffered.
	r.SendFloat64s(mpi.CommWorld, up, 21, topPlane)
	r.SendFloat64s(mpi.CommWorld, down, 22, bottomPlane)
	below = r.RecvFloat64sInto(mpi.CommWorld, down, 21, g.below)
	above = r.RecvFloat64sInto(mpi.CommWorld, up, 22, g.above)
	return below, above
}

// smooth runs iters Jacobi sweeps of the 7-point Laplacian with halo
// exchanges between sweeps.
func smooth(r *mpi.Rank, g *grid, iters int) {
	n := g.n
	next := g.next
	for s := 0; s < iters; s++ {
		below, above := haloExchange(r, g)
		for zl := 0; zl < g.planes; zl++ {
			var zm, zp []float64
			if zl == 0 {
				zm = below
			} else {
				zm = g.u[g.at(zl-1, 0, 0) : g.at(zl-1, 0, 0)+n*n]
			}
			if zl == g.planes-1 {
				zp = above
			} else {
				zp = g.u[g.at(zl+1, 0, 0) : g.at(zl+1, 0, 0)+n*n]
			}
			for y := 1; y < n-1; y++ {
				for x := 1; x < n-1; x++ {
					i := g.at(zl, y, x)
					sum := g.u[i-1] + g.u[i+1] + g.u[i-n] + g.u[i+n] + zm[y*n+x] + zp[y*n+x]
					next[i] = (sum + g.b[i]) / 6.0
				}
			}
		}
		copy(g.u, next)
	}
}

// residual computes res = b - A*u with one halo exchange.
func residual(r *mpi.Rank, g *grid) {
	n := g.n
	below, above := haloExchange(r, g)
	for zl := 0; zl < g.planes; zl++ {
		var zm, zp []float64
		if zl == 0 {
			zm = below
		} else {
			zm = g.u[g.at(zl-1, 0, 0) : g.at(zl-1, 0, 0)+n*n]
		}
		if zl == g.planes-1 {
			zp = above
		} else {
			zp = g.u[g.at(zl+1, 0, 0) : g.at(zl+1, 0, 0)+n*n]
		}
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				i := g.at(zl, y, x)
				au := 6*g.u[i] - g.u[i-1] - g.u[i+1] - g.u[i-n] - g.u[i+n] - zm[y*n+x] - zp[y*n+x]
				g.res[i] = g.b[i] - au
			}
		}
	}
}

// restrict injects the fine residual into the coarse right-hand side by
// averaging 2x2x2 blocks. Both fine planes of each coarse plane are local
// by construction (planes per rank is even on the fine level).
func restrict(fine, coarse *grid) {
	n := coarse.n
	for zl := 0; zl < coarse.planes; zl++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var sum float64
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							fy, fx := 2*y+dy, 2*x+dx
							if fy >= fine.n || fx >= fine.n {
								continue
							}
							sum += fine.res[fine.at(2*zl+dz, fy, fx)]
						}
					}
				}
				coarse.b[coarse.at(zl, y, x)] = sum / 8.0
			}
		}
	}
}

// prolongate adds the piecewise-constant interpolation of the coarse
// correction into the fine solution.
func prolongate(coarse, fine *grid) {
	for zl := 0; zl < fine.planes; zl++ {
		for y := 0; y < fine.n; y++ {
			for x := 0; x < fine.n; x++ {
				cz, cy, cx := zl/2, y/2, x/2
				if cy >= coarse.n || cx >= coarse.n {
					continue
				}
				fine.u[fine.at(zl, y, x)] += coarse.u[coarse.at(cz, cy, cx)]
			}
		}
	}
}
