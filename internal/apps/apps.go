// Package apps defines the workload abstraction FastFIT studies: an
// application is a rank function running on the simulated MPI runtime,
// annotated with execution phases and error-handling regions.
//
// The bundled workloads (subpackages is, ft, mg, lu and minimd) are
// miniature but communication-faithful re-implementations of the NAS
// Parallel Benchmark kernels IS, FT, MG and LU and of a LAMMPS-style
// molecular-dynamics application — the workloads of the paper's evaluation.
package apps

import (
	"errors"
	"fmt"

	"github.com/fastfit/fastfit/internal/mpi"
)

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
}

// App is one workload known to FastFIT.
type App interface {
	// Name returns the short identifier used by CLIs and reports.
	Name() string
	// DefaultConfig returns a configuration matching the paper's setup in
	// miniature (problem scaled to run in milliseconds). An app that is a
	// Checker accepts it.
	DefaultConfig() Config
	// Main is the per-rank entry point. It must be deterministic given
	// (cfg, rank id) and must report its final results through
	// r.ReportResult so silent data corruption is detectable.
	//
	// An app may checkpoint, so that a forked trial need not recompute the
	// prefix before its fault. It names its state as an mpi.State — a
	// struct of everything the rest of the run reads of what the run so far
	// computed, with a Clone that copies whatever the run still writes and
	// an Equal that compares every field, floats by their bits
	// (mpi.EqualBits), so that a trial whose every rank reaches a later
	// checkpoint in the golden state can end there —
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

// ErrRefused is wrapped by every refusal of a config an app's Main cannot
// run as the workload it models; no engine runs it, no supervisor retries it.
var ErrRefused = errors.New("configuration refused")

// Checker is an App that states which configurations its Main can run, as
// every bundled workload does; an App that is not one accepts them all.
type Checker interface {
	// Check returns nil or a refusal (Require) naming the rule cfg breaks.
	Check(cfg Config) error
}

// Check returns a's refusal of cfg, if a is a Checker and refuses it.
func Check(a App, cfg Config) error {
	if c, ok := a.(Checker); ok {
		return c.Check(cfg)
	}
	return nil
}

// Require returns a's refusal of cfg when cfg lacks a rank, a unit of
// problem size or an iteration, which no bundled app runs without, or else
// when ok is false, naming rule.
func Require(a App, cfg Config, ok bool, rule string) error {
	if cfg.Ranks < 1 || cfg.Scale < 1 || cfg.Iters < 1 {
		ok, rule = false, "needs at least one rank, a scale of at least 1 and one iteration"
	}
	if ok {
		return nil
	}
	return fmt.Errorf("%w: %s at %d ranks, scale %d, %d iters: %s",
		ErrRefused, a.Name(), cfg.Ranks, cfg.Scale, cfg.Iters, rule)
}

// ConfigFor returns a's DefaultConfig at the given rank count, its Scale
// doubled until a accepts it. A rank count that no size up to 2^10 times
// the default fits is refused.
func ConfigFor(a App, ranks int) (Config, error) {
	cfg := a.DefaultConfig()
	cfg.Ranks = ranks
	for try, i := cfg, 0; i <= 10; i, try.Scale = i+1, try.Scale*2 {
		if Check(a, try) == nil {
			return try, nil
		}
	}
	return Config{}, fmt.Errorf("%w (nor does any scale up to %d)", Check(a, cfg), cfg.Scale<<10)
}
