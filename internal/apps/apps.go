// Package apps defines the workload abstraction FastFIT studies: an
// application is a rank function running on the simulated MPI runtime,
// annotated with execution phases and error-handling regions.
//
// The bundled workloads (subpackages is, ft, mg, lu and minimd) are
// miniature but communication-faithful re-implementations of the NAS
// Parallel Benchmark kernels IS, FT, MG and LU and of a LAMMPS-style
// molecular-dynamics application — the workloads of the paper's evaluation.
package apps

import "github.com/fastfit/fastfit/internal/mpi"

// Config parameterises one application execution. The zero value is not
// usable; start from an App's DefaultConfig.
type Config struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// Scale is the app-specific problem-size knob (keys per rank, grid
	// edge, atoms per rank, ...). Each app documents its meaning.
	Scale int
	// Iters is the number of outer iterations (time steps, V-cycles, ...).
	Iters int
	// Seed drives all application randomness; a fixed seed makes golden
	// and injected runs follow identical control flow up to the fault.
	Seed int64
	// Algorithm selects the collective-implementation variant for workloads
	// that consult the resilient-algorithm registry (the shoot workload
	// sweeps it); "" means the unprotected baseline. Workloads that call the
	// runtime's collectives directly ignore it.
	Algorithm string
}

// App is one workload known to FastFIT.
type App interface {
	// Name returns the short identifier used by CLIs and reports.
	Name() string
	// DefaultConfig returns a configuration matching the paper's setup in
	// miniature (problem scaled to run in milliseconds).
	DefaultConfig() Config
	// Main is the per-rank entry point. It must be deterministic given
	// (cfg, rank id) and must report its final results through
	// r.ReportResult so silent data corruption is detectable.
	//
	// An app may checkpoint, so that a forked trial need not recompute the
	// prefix before its fault. It names its state as an mpi.State — a
	// struct of everything the rest of the run reads of what the run so far
	// computed, with a Clone that copies whatever the run still writes —
	// and calls r.Checkpoint(s) at the top of every outer iteration but
	// the first (which only the input phase precedes) and once before the
	// end phase. Main's first call is r.Resume(): a non-nil
	// result is a fresh copy of the last checkpoint before the rank's cut,
	// the rank's bookkeeping already restored, and Main jumps to the
	// iteration it names. Every collective and point-to-point call must
	// keep its function and source order, since a rank's sites are ordered
	// by PC. mg, lu and minimd checkpoint; an app that does not runs every
	// trial's prefix from t=0.
	Main(r *mpi.Rank, cfg Config) error
}
