// Package ft implements a miniature of the NAS Parallel Benchmarks FT
// kernel: a time-evolved 3-D FFT. The grid is distributed in z-slabs; each
// spectral step performs local FFTs along x and y, a global transpose with
// MPI_Alltoall, and a local FFT along z, followed by a checksum Reduce and
// a NaN consistency check — the communication skeleton of NPB FT.
//
// As in the Fortran original, arrays are statically sized from the
// compile-time problem class (the Config) while the values broadcast from
// rank 0 — grid edge, iteration count and the transpose block size — drive
// the loop bounds and MPI counts. A corrupted broadcast therefore produces
// mismatched Alltoall counts, which surface as MPI_ERR_TRUNCATE at the
// receivers: the mechanism behind FT's MPI_ERR-dominated sensitivity
// profile in the paper's Fig. 7 (46% MPI_ERR).
package ft

import (
	"math"
	"math/cmplx"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// FT is the 3-D FFT workload.
type FT struct{}

// New returns the FT workload.
func New() apps.App { return FT{} }

// Name implements apps.App.
func (FT) Name() string { return "ft" }

// DefaultConfig implements apps.App: Scale is the grid edge.
func (FT) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 16, Scale: 16, Iters: 3, Seed: 271828}
}

// Check implements apps.Checker: radix-2 FFTs need a power-of-two edge, and
// the transposes split its planes and x-columns evenly among the ranks.
func (a FT) Check(cfg apps.Config) error {
	return apps.Require(a, cfg, cfg.Ranks > 0 && cfg.Scale&(cfg.Scale-1) == 0 && cfg.Scale%cfg.Ranks == 0,
		"needs a power-of-two scale (the grid edge) that is a multiple of ranks")
}

// Main implements apps.App.
func (FT) Main(r *mpi.Rank, cfg apps.Config) error {
	p := r.NumRanks()

	// Compile-time problem class: static array dimensions.
	nStatic, itersStatic := cfg.Scale, cfg.Iters
	planesStatic := nStatic / p
	chunkStatic := nStatic / p
	blockStatic := chunkStatic * nStatic * planesStatic

	// --- init phase: broadcast the runtime layout ---
	r.SetPhase(mpi.PhaseInit)
	params := r.BcastInt64s([]int64{int64(nStatic), int64(itersStatic), int64(blockStatic)}, 0, mpi.CommWorld)
	n := int(params[0])
	iters := int(params[1])
	blockElems := int(params[2])
	planes := n / p
	chunk := n / p
	r.Barrier(mpi.CommWorld)

	// Static arrays, sized by the problem class regardless of the
	// broadcast values.
	field := make([]complex128, planesStatic*nStatic*nStatic)
	pdata := make([]complex128, chunkStatic*nStatic*nStatic)
	sendVals := make([]complex128, blockStatic*p)
	work := make([]complex128, nStatic)

	// Index helpers use the *runtime* edge length, like Fortran dimension
	// statements bound to broadcast values: corrupted values walk off the
	// static allocations.
	slab := func(zl, y, x int) int { return (zl*n+y)*n + x }
	pencil := func(xl, y, z int) int { return (xl*n+y)*n + z }

	// --- input phase: random initial field ---
	r.SetPhase(mpi.PhaseInput)
	r.Tick(planes*n*n*3 + 10)
	rng := r.SeededRand(cfg.Seed + int64(r.ID())*7577)
	for zl := 0; zl < planes; zl++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				field[slab(zl, y, x)] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			}
		}
	}

	// --- compute phase: evolve + 3-D FFT + checksum per iteration ---
	r.SetPhase(mpi.PhaseCompute)
	var lastRe, lastIm float64
	for it := 1; it <= iters; it++ {
		// Work-budget charge covering the FFT passes and transposes.
		r.Tick(planes*n*n*80 + 200)

		// Evolve in slab layout: damp each mode by its wavenumber.
		for zl := 0; zl < planes; zl++ {
			z := r.ID()*planes + zl
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					k2 := waveSq(x, n) + waveSq(y, n) + waveSq(z, n)
					factor := math.Exp(-1e-4 * float64(it) * k2)
					field[slab(zl, y, x)] *= complex(factor, 0)
				}
			}
		}

		// FFT along x (contiguous rows).
		for zl := 0; zl < planes; zl++ {
			for y := 0; y < n; y++ {
				row := field[slab(zl, y, 0) : slab(zl, y, 0)+n]
				fft(row, false)
			}
		}
		// FFT along y (strided columns within a plane).
		for zl := 0; zl < planes; zl++ {
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					work[y] = field[slab(zl, y, x)]
				}
				fft(work[:n], false)
				for y := 0; y < n; y++ {
					field[slab(zl, y, x)] = work[y]
				}
			}
		}

		// Global transpose: send x-chunk q of my slab to rank q. The MPI
		// count is the broadcast block size; peers post their own counts,
		// so disagreement truncates (MPI_ERR) or overruns (SEG_FAULT).
		idx := 0
		for q := 0; q < p; q++ {
			for zl := 0; zl < planes; zl++ {
				for y := 0; y < n; y++ {
					for xo := 0; xo < chunk; xo++ {
						sendVals[idx] = field[slab(zl, y, q*chunk+xo)]
						idx++
					}
				}
			}
		}
		sendBuf := r.FromComplex128s(sendVals)
		recvBuf := r.NewComplex128Buffer(blockStatic * p)
		r.Alltoall(sendBuf, recvBuf, blockElems, mpi.Complex128, mpi.CommWorld)
		recvVals := recvBuf.Complex128s()
		sendBuf.Release()
		recvBuf.Release()

		// Unpack into pencil layout: from rank q arrive my x-chunk's values
		// for q's z-planes.
		idx = 0
		for q := 0; q < p; q++ {
			for zl := 0; zl < planes; zl++ {
				z := q*planes + zl
				for y := 0; y < n; y++ {
					for xo := 0; xo < chunk; xo++ {
						pdata[pencil(xo, y, z)] = recvVals[idx]
						idx++
					}
				}
			}
		}

		// FFT along z (contiguous in pencil layout).
		for xo := 0; xo < chunk; xo++ {
			for y := 0; y < n; y++ {
				col := pdata[pencil(xo, y, 0) : pencil(xo, y, 0)+n]
				fft(col, false)
			}
		}

		// Checksum: sample pseudo-random global sites owned in pencil
		// layout, then Reduce to rank 0 (NPB FT prints per-iteration
		// checksums on the root).
		var csRe, csIm float64
		for j := 0; j < 64; j++ {
			g := (uint64(j)*2654435761 + uint64(it)*97) % uint64(n*n*n)
			x := int(g) % n
			y := (int(g) / n) % n
			z := int(g) / (n * n)
			if chunk > 0 && x/chunk == r.ID() {
				v := pdata[pencil(x%chunk, y, z)]
				csRe += real(v)
				csIm += imag(v)
			}
		}
		sum := r.ReduceFloat64s([]float64{csRe, csIm}, mpi.OpSum, 0, mpi.CommWorld)
		if r.ID() == 0 {
			lastRe, lastIm = sum[0], sum[1]
		}

		// NaN consistency check across ranks: FT's error handling.
		r.ErrCheck(func() {
			flag := int64(0)
			if math.IsNaN(csRe) || math.IsNaN(csIm) || math.IsInf(csRe, 0) || math.IsInf(csIm, 0) {
				flag = 1
			}
			if r.AllreduceInt64(flag, mpi.OpLor, mpi.CommWorld) != 0 {
				r.Abort("FT checksum is not finite")
			}
		})

		// Transpose back for the next evolution step: reverse exchange.
		idx = 0
		for q := 0; q < p; q++ {
			for zl := 0; zl < planes; zl++ {
				z := q*planes + zl
				for y := 0; y < n; y++ {
					for xo := 0; xo < chunk; xo++ {
						sendVals[idx] = pdata[pencil(xo, y, z)]
						idx++
					}
				}
			}
		}
		sendBuf = r.FromComplex128s(sendVals)
		recvBuf = r.NewComplex128Buffer(blockStatic * p)
		r.Alltoall(sendBuf, recvBuf, blockElems, mpi.Complex128, mpi.CommWorld)
		recvVals = recvBuf.Complex128s()
		sendBuf.Release()
		recvBuf.Release()
		idx = 0
		for q := 0; q < p; q++ {
			for zl := 0; zl < planes; zl++ {
				for y := 0; y < n; y++ {
					for xo := 0; xo < chunk; xo++ {
						field[slab(zl, y, q*chunk+xo)] = recvVals[idx]
						idx++
					}
				}
			}
		}
	}

	// --- end phase: the program's printed output on the root ---
	r.SetPhase(mpi.PhaseEnd)
	var local float64
	for _, v := range field {
		local += real(v)*real(v) + imag(v)*imag(v)
	}
	norm := r.AllreduceFloat64(local, mpi.OpSum, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(apps.RoundSig(norm, 9), apps.RoundSig(lastRe, 9), apps.RoundSig(lastIm, 9))
	}
	r.Barrier(mpi.CommWorld)
	return nil
}

// waveSq returns the squared wavenumber of index i on an n-point grid with
// the usual FFT wrap-around ordering.
func waveSq(i, n int) float64 {
	k := i
	if k > n/2 {
		k -= n
	}
	return float64(k * k)
}

// fft performs an in-place radix-2 Cooley-Tukey FFT (inverse when inv, with
// 1/n normalisation). A non-power-of-two length — only reachable through a
// corrupted broadcast — crashes, as the original's index arithmetic would.
func fft(a []complex128, inv bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic(mpi.SegFault{Op: "FT fft indexing with corrupted dimension", Length: n})
	}
	// bit-reversal permutation
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inv {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * w
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	if inv {
		for i := range a {
			a[i] /= complex(float64(n), 0)
		}
	}
}
