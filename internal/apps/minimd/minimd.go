// Package minimd implements a LAMMPS-style molecular-dynamics application:
// Lennard-Jones particles in a periodic box, slab-decomposed along z, with
// ghost-atom exchange, atom migration, a velocity-rescale thermostat and
// LAMMPS's characteristic collective profile — MPI_Allreduce dominates
// (>80% of collectives) and a large fraction of those Allreduces implement
// error handling (lost-atom and NaN consistency checks), matching the
// paper's observation that 40.32% of LAMMPS's Allreduce calls are error
// handling.
//
// It stands in for the paper's LAMMPS rhodopsin runs: the sensitivity
// signature (high SUCCESS rate, APP_DETECTED as the second most common
// response, low WRONG_ANS thanks to statistically-reported outputs) comes
// from this structure, not from the chemistry.
package minimd

import (
	"math"
	"slices"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// MiniMD is the molecular-dynamics workload.
type MiniMD struct{}

// New returns the miniMD workload.
func New() apps.App { return MiniMD{} }

// Name implements apps.App.
func (MiniMD) Name() string { return "minimd" }

// DefaultConfig implements apps.App: Scale is atoms per rank.
func (MiniMD) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 16, Scale: 24, Iters: 6, Seed: 577215}
}

// Check implements apps.Checker: a rank's atoms must fit the simulated
// memory.
func (a MiniMD) Check(cfg apps.Config) error {
	return apps.Require(a, cfg, cfg.Scale <= apps.MemLimitElems, "needs at most 4194304 atoms per rank (scale)")
}

type atom struct {
	x, y, z    float64
	vx, vy, vz float64
}

const atomFloats = 6

// state is what a time step reads of the run before it, checkpointed at the
// top of every step but the first, again just before the step's first
// collective (the lost-atom check), and once before the end phase: the
// broadcast input deck, the step to run, the last step's energies and the
// atoms this rank owns. At the second checkpoint it also holds the step's
// local kinetic and potential energy and virial, which its collectives
// reduce, and atChecks, which tells a run resumed there to skip the step's
// force computation, integration and exchanges and go straight to its
// collectives.
type state struct {
	perRank, steps, step  int
	dt, rc, lxy, slab, t0 float64
	lastKE, lastPE        float64
	ke, pe, virial        float64
	atChecks              bool
	atoms                 []atom
}

// Clone implements mpi.State.
func (s *state) Clone() mpi.State {
	c := *s
	c.atoms = slices.Clone(s.atoms)
	return &c
}

// Equal implements mpi.State.
func (s *state) Equal(o mpi.State) bool {
	t := o.(*state)
	return s.perRank == t.perRank && s.steps == t.steps && s.step == t.step && s.atChecks == t.atChecks &&
		mpi.EqualBits([]float64{s.dt, s.rc, s.lxy, s.slab, s.t0, s.lastKE, s.lastPE, s.ke, s.pe, s.virial},
			[]float64{t.dt, t.rc, t.lxy, t.slab, t.t0, t.lastKE, t.lastPE, t.ke, t.pe, t.virial}) &&
		slices.EqualFunc(s.atoms, t.atoms, func(a, b atom) bool { return a.bits() == b.bits() })
}

// bits is the atom's six floats as their bits.
func (a atom) bits() [atomFloats]uint64 {
	return [atomFloats]uint64{
		math.Float64bits(a.x), math.Float64bits(a.y), math.Float64bits(a.z),
		math.Float64bits(a.vx), math.Float64bits(a.vy), math.Float64bits(a.vz),
	}
}

// Main implements apps.App.
func (MiniMD) Main(r *mpi.Rank, cfg apps.Config) error {
	p := r.NumRanks()
	perRankStatic := cfg.Scale

	// A forked run starts from the last checkpoint before its cut, if any.
	s, resumed := r.Resume().(*state)
	if !resumed {
		// --- init phase: broadcast the input deck ---
		r.SetPhase(mpi.PhaseInit)
		deck := []float64{
			float64(perRankStatic), // atoms per rank
			float64(cfg.Iters),     // time steps
			0.002,                  // dt
			1.5,                    // cutoff
			4.0,                    // box edge in x and y
			2.0,                    // slab width in z
			1.0,                    // target temperature
			0.05,                   // initial velocity scale
		}
		deck = r.BcastFloat64s(deck, 0, mpi.CommWorld)
		s = &state{
			perRank: apps.GuardAlloc("miniMD atoms", int(deck[0])),
			steps:   int(deck[1]),
			dt:      deck[2], rc: deck[3], lxy: deck[4], slab: deck[5], t0: deck[6],
		}
		vScale := deck[7]
		r.Barrier(mpi.CommWorld)

		// --- input phase: lattice positions with thermal jitter ---
		r.SetPhase(mpi.PhaseInput)
		r.Tick(s.perRank*4 + 10)
		rng := r.SeededRand(cfg.Seed + int64(r.ID())*8111)
		lo := float64(r.ID()) * s.slab
		s.atoms = make([]atom, 0, s.perRank*2)
		side := int(math.Ceil(math.Cbrt(float64(s.perRank))))
		n := 0
		for i := 0; i < side && n < s.perRank; i++ {
			for j := 0; j < side && n < s.perRank; j++ {
				for k := 0; k < side && n < s.perRank; k++ {
					a := atom{
						x:  (float64(i) + 0.5) * s.lxy / float64(side),
						y:  (float64(j) + 0.5) * s.lxy / float64(side),
						z:  lo + (float64(k)+0.5)*s.slab/float64(side),
						vx: vScale * (rng.Float64() - 0.5),
						vy: vScale * (rng.Float64() - 0.5),
						vz: vScale * (rng.Float64() - 0.5),
					}
					s.atoms = append(s.atoms, a)
					n++
				}
			}
		}
	}
	dt, rc, lxy, slab, t0 := s.dt, s.rc, s.lxy, s.slab, s.t0
	lz := slab * float64(p)
	nTotal := int64(s.perRank) * int64(p)
	lo := float64(r.ID()) * slab
	hi := lo + slab
	atoms := s.atoms

	// --- compute phase: the MD loop ---
	r.SetPhase(mpi.PhaseCompute)
	left := (r.ID() - 1 + p) % p
	right := (r.ID() + 1) % p

	// Per-rank exchange scratch in static memory (mpi.Static), sized from
	// the problem class and reused every step: pack buffers for the two
	// neighbours, their receive buffers (recvL also holds both, hence twice
	// the room), the unpacked ghosts and the atoms that stay. The atom list
	// and force accumulators follow the broadcast atom count, so they don't.
	room := perRankStatic * 2 * atomFloats
	packL := mpi.Static[float64](r, 0, room)
	packR := mpi.Static[float64](r, 0, room)
	recvL := mpi.Static[float64](r, 0, 2*room)
	recvR := mpi.Static[float64](r, 0, room)
	ghosts := mpi.Static[atom](r, 0, perRankStatic*2)
	stay := mpi.Static[atom](r, 0, perRankStatic*2)
	var fx, fy, fz []float64
	for ; s.step < s.steps; s.step++ {
		if !s.atChecks { // a run resumed at the checks has computed the step
			if s.step > 0 { // resuming at the first step would skip only the input phase
				r.Checkpoint(s)
			}
			// Charge this step's estimated cost against the work budget: a
			// corrupted step count or atom count turns into a scheduler kill
			// (INF_LOOP) instead of hours of simulation.
			la := len(atoms)
			r.Tick(la*la/2 + la*50 + 200)

			// Ghost-atom exchange with the two z-neighbours.
			toLeft, toRight := packL[:0], packR[:0]
			for _, a := range atoms {
				if a.z < lo+rc {
					g := a
					if r.ID() == 0 {
						g.z += lz // periodic image
					}
					toLeft = append(toLeft, g.x, g.y, g.z, g.vx, g.vy, g.vz)
				}
				if a.z >= hi-rc {
					g := a
					if r.ID() == p-1 {
						g.z -= lz
					}
					toRight = append(toRight, g.x, g.y, g.z, g.vx, g.vy, g.vz)
				}
			}
			r.SendFloat64s(mpi.CommWorld, left, 41, toLeft)
			r.SendFloat64s(mpi.CommWorld, right, 42, toRight)
			fromRight := r.RecvFloat64sInto(mpi.CommWorld, right, 41, recvR)
			fromLeft := r.RecvFloat64sInto(mpi.CommWorld, left, 42, recvL)
			ghosts = unpackAtoms(ghosts[:0], append(fromLeft, fromRight...))
			r.Tick(la * len(ghosts))

			// Lennard-Jones forces with a softened core (deterministic and
			// stable at this miniature scale).
			fx, fy, fz = zeroed(fx, la), zeroed(fy, la), zeroed(fz, la)
			pe := 0.0
			virial := 0.0
			pair := func(i int, bx, by, bz float64, full bool) {
				a := &atoms[i]
				dx := minImage(a.x-bx, lxy)
				dy := minImage(a.y-by, lxy)
				dz := a.z - bz
				r2 := dx*dx + dy*dy + dz*dz
				if r2 >= rc*rc {
					return
				}
				if r2 < 0.04 {
					r2 = 0.04 // softened core
				}
				inv2 := 1.0 / r2
				inv6 := inv2 * inv2 * inv2
				f := 24 * inv2 * inv6 * (2*inv6 - 1)
				fx[i] += f * dx
				fy[i] += f * dy
				fz[i] += f * dz
				e := 4 * inv6 * (inv6 - 1)
				if full {
					pe += e
					virial += f * r2
				} else {
					pe += e / 2
					virial += f * r2 / 2
				}
			}
			for i := range atoms {
				for j := i + 1; j < len(atoms); j++ {
					b := atoms[j]
					pair(i, b.x, b.y, b.z, true)
					// Newton's third law for the local pair.
					dx := minImage(atoms[i].x-b.x, lxy)
					dy := minImage(atoms[i].y-b.y, lxy)
					dz := atoms[i].z - b.z
					r2 := dx*dx + dy*dy + dz*dz
					if r2 < rc*rc {
						if r2 < 0.04 {
							r2 = 0.04
						}
						inv2 := 1.0 / r2
						inv6 := inv2 * inv2 * inv2
						f := 24 * inv2 * inv6 * (2*inv6 - 1)
						fx[j] -= f * dx
						fy[j] -= f * dy
						fz[j] -= f * dz
					}
				}
				for _, g := range ghosts {
					pair(i, g.x, g.y, g.z, false)
				}
			}

			// Integrate and wrap.
			ke := 0.0
			for i := range atoms {
				a := &atoms[i]
				a.vx += fx[i] * dt
				a.vy += fy[i] * dt
				a.vz += fz[i] * dt
				a.x = wrap(a.x+a.vx*dt, lxy)
				a.y = wrap(a.y+a.vy*dt, lxy)
				a.z += a.vz * dt
				ke += 0.5 * (a.vx*a.vx + a.vy*a.vy + a.vz*a.vz)
			}

			// Migrate atoms that crossed a slab boundary (periodic in z).
			stay = stay[:0]
			migLeft, migRight := packL[:0], packR[:0]
			lost := int64(0)
			for _, a := range atoms {
				z := a.z
				if z < 0 {
					z += lz
				} else if z >= lz {
					z -= lz
				}
				a.z = z
				switch {
				case z >= lo && z < hi:
					stay = append(stay, a)
				case ownerOf(z, slab, p) == left:
					migLeft = append(migLeft, a.x, a.y, a.z, a.vx, a.vy, a.vz)
				case ownerOf(z, slab, p) == right:
					migRight = append(migRight, a.x, a.y, a.z, a.vx, a.vy, a.vz)
				default:
					// Moved more than one slab in a single step: the atom is
					// lost, exactly like LAMMPS's "Lost atoms" condition.
					lost++
				}
			}
			r.SendFloat64s(mpi.CommWorld, left, 43, migLeft)
			r.SendFloat64s(mpi.CommWorld, right, 44, migRight)
			inRight := r.RecvFloat64sInto(mpi.CommWorld, right, 43, recvR)
			inLeft := r.RecvFloat64sInto(mpi.CommWorld, left, 44, recvL)
			// The new atom list grows in stay's storage; the old one becomes
			// the next step's stay.
			atoms, stay = unpackAtoms(stay, append(inLeft, inRight...)), atoms
			s.atoms = atoms
			_ = lost
			s.ke, s.pe, s.virial, s.atChecks = ke, pe, virial, true
			r.Checkpoint(s)
		}
		s.atChecks = false

		// Error handling 1: global lost-atom check (LAMMPS Error::all).
		r.ErrCheck(func() {
			count := r.AllreduceInt64(int64(len(atoms)), mpi.OpSum, mpi.CommWorld)
			if count != nTotal {
				r.Abort("Lost atoms: original count does not match current count")
			}
		})

		// Error handling 2: NaN/instability consistency flag.
		r.ErrCheck(func() {
			flag := int64(0)
			for _, a := range atoms {
				if math.IsNaN(a.x) || math.IsNaN(a.vx) || math.IsNaN(a.z) {
					flag = 1
					break
				}
			}
			if r.AllreduceInt64(flag, mpi.OpLor, mpi.CommWorld) != 0 {
				r.Abort("Non-numeric atom coordinates detected")
			}
		})

		// Error handling 3: cross-rank consistency of the reneighbouring
		// decision flag (LAMMPS allreduces such flags and aborts on
		// disagreement).
		r.ErrCheck(func() {
			flag := int64(0)
			if s.step%2 == 1 {
				flag = 1
			}
			mn := r.AllreduceInt64(flag, mpi.OpMin, mpi.CommWorld)
			mx := r.AllreduceInt64(flag, mpi.OpMax, mpi.CommWorld)
			if mn != mx {
				r.Abort("Inconsistent reneighboring flags across ranks")
			}
		})

		// Thermo output: energies and virial (diagnostics only).
		th := r.AllreduceFloat64s([]float64{s.ke, s.pe, s.virial}, mpi.OpSum, mpi.CommWorld)
		s.lastKE, s.lastPE = th[0], th[1]

		// Temperature (diagnostic Allreduce, like compute_temp).
		tSum := r.AllreduceFloat64(s.ke, mpi.OpSum, mpi.CommWorld)
		temp := 2 * tSum / (3 * float64(nTotal))
		_ = temp

		// Pressure from the virial (diagnostic, like compute_pressure).
		vSum := r.AllreduceFloat64(s.virial, mpi.OpSum, mpi.CommWorld)
		press := (2*tSum + vSum) / (3 * lxy * lxy * lz)
		_ = press

		// Centre-of-mass momentum (diagnostic, like LAMMPS velocity
		// diagnostics).
		var px, py, pz float64
		for _, a := range atoms {
			px += a.vx
			py += a.vy
			pz += a.vz
		}
		com := r.AllreduceFloat64s([]float64{px, py, pz}, mpi.OpSum, mpi.CommWorld)
		_ = com

		// Thermostat: velocity rescale toward t0; this Allreduce result
		// feeds back into the trajectory.
		keTot := r.AllreduceFloat64(s.ke, mpi.OpSum, mpi.CommWorld)
		if keTot > 0 {
			lambda := math.Sqrt(t0 * 1.5 * float64(nTotal) / keTot)
			// Gentle nudging, as LAMMPS's fix temp/rescale does.
			lambda = 1 + 0.1*(lambda-1)
			for i := range atoms {
				atoms[i].vx *= lambda
				atoms[i].vy *= lambda
				atoms[i].vz *= lambda
			}
		}

		// Load statistics every other step (Allgather of atom counts).
		if s.step%2 == 1 {
			counts := r.AllgatherInt64s(int64(len(atoms)), mpi.CommWorld)
			var max int64
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			_ = max
		}
	}

	r.Checkpoint(s)

	// --- end phase: final thermodynamic report ---
	r.SetPhase(mpi.PhaseEnd)
	final := r.AllreduceFloat64s([]float64{s.lastKE + s.lastPE, float64(len(atoms))}, mpi.OpSum, mpi.CommWorld)
	counts := r.GatherFloat64s([]float64{float64(len(atoms))}, 0, mpi.CommWorld)
	// LAMMPS prints its thermo table on the root with limited precision;
	// tiny mantissa perturbations do not alter the reported result, and
	// internal state is not program output.
	if r.ID() == 0 {
		sum := 0.0
		for _, c := range counts {
			sum += c
		}
		r.ReportResult(apps.RoundSig(final[0], 6), final[1], sum)
	}
	r.Barrier(mpi.CommWorld)
	return nil
}

// unpackAtoms appends the atoms packed in vals to out.
func unpackAtoms(out []atom, vals []float64) []atom {
	for i := 0; i+atomFloats <= len(vals); i += atomFloats {
		out = append(out, atom{vals[i], vals[i+1], vals[i+2], vals[i+3], vals[i+4], vals[i+5]})
	}
	return out
}

// zeroed returns an n-element all-zero slice, in buf's storage when it fits.
func zeroed(buf []float64, n int) []float64 {
	if n > cap(buf) {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func minImage(d, l float64) float64 {
	if d > l/2 {
		return d - l
	}
	if d < -l/2 {
		return d + l
	}
	return d
}

func wrap(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// ownerOf returns the rank owning coordinate z, or -1 when z is not finite
// or outside the box.
func ownerOf(z, slab float64, p int) int {
	if math.IsNaN(z) || math.IsInf(z, 0) || z < 0 {
		return -1
	}
	o := int(z / slab)
	if o >= p {
		return -1
	}
	return o
}
