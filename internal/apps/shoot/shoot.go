// Package shoot is the algorithm-shootout workload: a synthetic iterative
// kernel whose collectives are routed through the resilient-algorithm
// registry (internal/resilient). One binary sweeps the zoo — baseline,
// checksum, voted, corrected, hbreorg, ftring — by setting
// apps.Config.Algorithm, so a campaign can measure how each variant shifts
// the outcome distribution under the *same* fault plan (the measurement
// examples/algorithm_shootout tabulates as overhead vs. coverage).
//
// All payloads are int64 under OpSum: integer addition is exactly
// associative and commutative, so variants that reorder the combine chain
// (ftring's rerouted ring, hbreorg's survivor trees) produce bit-identical
// results on fault-free runs — any WRONG_ANS verdict is a genuine data
// deviation, never reordering noise.
package shoot

import (
	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/resilient"
)

// App is the shootout workload.
type App struct{}

// New returns the shoot app.
func New() App { return App{} }

// Name implements apps.App.
func (App) Name() string { return "shoot" }

// DefaultConfig sizes the kernel to run in milliseconds: Scale is the
// per-peer block size in int64 elements (the alltoall moves
// Scale*Ranks elements per rank per iteration).
func (App) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 8, Scale: 64, Iters: 3, Seed: 271828}
}

// Check implements apps.Checker: Main's input-deck check aborts past 4096
// iterations, and a rank's state of Scale·Ranks elements fits the memory.
func (a App) Check(cfg apps.Config) error {
	return apps.Require(a, cfg, cfg.Iters <= 1<<12 && cfg.Scale*cfg.Ranks <= apps.MemLimitElems,
		"runs at most 4096 iterations on at most 4194304 state elements (scale·ranks)")
}

// splitmix advances a deterministic per-rank generator; the same stream
// seeds the initial state on every run, so golden and injected executions
// agree up to the fault.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Main implements apps.App. Each iteration allreduces a per-rank summary
// vector, exchanges state blocks all-to-all, and folds both results back
// into the local state; every rank reports its final state checksum so
// silent corruption anywhere is visible to the classifier.
func (App) Main(r *mpi.Rank, cfg apps.Config) error {
	alg, err := resilient.Get(cfg.Algorithm)
	if err != nil {
		return err
	}

	r.SetPhase(mpi.PhaseInit)
	nproc := r.Size(mpi.CommWorld)
	blockStatic, itersStatic := cfg.Scale, cfg.Iters
	// Rank 0 distributes the run parameters through the variant's own
	// allreduce (root contributes, the rest add zero), so the init phase is
	// exactly as fault-tolerant as the variant under study — an unprotected
	// baseline broadcast here would deadlock every variant alike under a
	// standing link failure, hiding the zoo's differences. Allocations below
	// are sized from the static values (the NPB apps' static-array pattern),
	// so a corrupted parameter can only drive indexing out of bounds —
	// trapped as a SegFault — never an unbounded allocation or spin.
	pSend := r.NewInt64Buffer(3)
	pRecv := r.NewInt64Buffer(3)
	for i := 0; i < 3; i++ {
		pSend.SetInt64(i, 0)
	}
	if r.ID() == 0 {
		pSend.SetInt64(0, int64(blockStatic))
		pSend.SetInt64(1, int64(itersStatic))
		pSend.SetInt64(2, cfg.Seed)
	}
	alg.Allreduce(r, pSend, pRecv, 3, mpi.Int64, mpi.OpSum, mpi.CommWorld)
	block, iters := int(pRecv.Int64(0)), int(pRecv.Int64(1))
	seed := pRecv.Int64(2)
	pSend.Release()
	pRecv.Release()
	if iters < 1 || iters > 1<<12 {
		// Input-deck sanity check, as a real benchmark would refuse an
		// absurd iteration count instead of running for hours.
		r.Abort("shoot: implausible iteration count")
	}

	// Per-rank state: nproc blocks of `block` int64s, seeded deterministically.
	state := make([]int64, blockStatic*nproc)
	z := uint64(seed)*0xBF58476D1CE4E5B9 + uint64(r.ID()+1)
	for i := range state {
		z = splitmix(z)
		state[i] = int64(z >> 1)
	}

	sendSum := r.NewInt64Buffer(blockStatic)
	recvSum := r.NewInt64Buffer(blockStatic)
	sendBlk := r.NewInt64Buffer(blockStatic * nproc)
	recvBlk := r.NewInt64Buffer(blockStatic * nproc)
	defer sendSum.Release()
	defer recvSum.Release()
	defer sendBlk.Release()
	defer recvBlk.Release()

	r.SetPhase(mpi.PhaseCompute)
	for it := 0; it < iters; it++ {
		// Column sums across the rank's blocks feed the allreduce.
		for j := 0; j < block; j++ {
			var s int64
			for b := 0; b < nproc; b++ {
				s += state[b*block+j]
			}
			sendSum.SetInt64(j, s)
		}
		alg.Allreduce(r, sendSum, recvSum, block, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		for j := 0; j < block; j++ {
			state[j] += recvSum.Int64(j)
		}

		// Exchange one block per peer, then fold the received blocks in.
		sendBlk.CopyInt64s(state)
		for i := 0; i < block*nproc; i++ {
			recvBlk.SetInt64(i, 0)
		}
		alg.Alltoall(r, sendBlk, recvBlk, block, mpi.Int64, mpi.CommWorld)
		for i := range state {
			state[i] = state[i]*3 + recvBlk.Int64(i)
		}
		r.Tick(block * nproc)
	}

	// Every rank reports its own checksum: survivor-aware classification
	// skips dead ranks, so a degraded survivor result is visible as
	// WRONG_ANS on the ranks that diverged, not masked by a dead root.
	r.SetPhase(mpi.PhaseEnd)
	var sum int64
	for _, v := range state {
		sum += v
	}
	r.ReportResult(float64(r.ID()), float64(uint64(sum)>>11))
	return nil
}
