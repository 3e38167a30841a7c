// Package classify implements the application-response taxonomy of the
// paper's Table I and the logic that assigns an executed run to one of the
// six classes by combining the runtime's failure report with a comparison
// against a fault-free golden run.
package classify

import (
	"math"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Outcome is one of the six application responses of Table I.
type Outcome int

const (
	// Success: the program exits without error and generates the same
	// result as the execution without fault injection.
	Success Outcome = iota
	// AppDetected: the program exits with an error reported by the program
	// itself.
	AppDetected
	// MPIErr: the program exits with an error reported by the MPI
	// environment.
	MPIErr
	// SegFault: the program exits with a segmentation fault.
	SegFault
	// WrongAns: the program exits but generates results different from the
	// fault-free execution.
	WrongAns
	// InfLoop: the program does not exit and is killed (deadlock or
	// timeout).
	InfLoop
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	"SUCCESS", "APP_DETECTED", "MPI_ERR", "SEG_FAULT", "WRONG_ANS", "INF_LOOP",
}

func (o Outcome) String() string {
	if o >= 0 && o < NumOutcomes {
		return outcomeNames[o]
	}
	return "UNKNOWN"
}

// IsError reports whether the outcome counts toward the paper's error rate
// (every class except SUCCESS).
func (o Outcome) IsError() bool { return o != Success }

// DefaultTolerance is the relative tolerance for golden-result comparison.
// Benchmarks print verification values with limited precision; bit flips
// that perturb a result below this threshold are indistinguishable from a
// clean run, exactly as they would be on the paper's testbed.
const DefaultTolerance = 1e-9

// Classify assigns a run to an outcome class given its golden reference.
func Classify(golden, res mpi.RunResult) Outcome {
	return ClassifyTol(golden, res, DefaultTolerance)
}

// ClassifyTol is Classify with an explicit relative tolerance.
func ClassifyTol(golden, res mpi.RunResult, tol float64) Outcome {
	if o, failed := failureClass(res); failed {
		return o
	}
	if !sameResults(golden, res, tol) {
		return WrongAns
	}
	return Success
}

// failureClass maps a run's failure report to its outcome class, in the
// priority order a job launcher reports: a crash beats an MPI abort beats
// an application abort beats a hang. The second return is false when the
// run completed and must be compared against the golden results.
//
// A run whose only errors are node crashes (mpi.NodeCrashed — the network
// fault domain took nodes down, and every surviving rank ran to completion)
// is classified by what the survivors produced: their values are compared
// against the golden run with the dead ranks excluded. A crash that starves
// its peers never reaches that path — the starved ranks die with
// mpi.Killed, which outranks NodeCrashed in FirstError and lands here as
// INF_LOOP. A run with no survivors at all behaves like a job that produced
// nothing and was torn down: INF_LOOP.
func failureClass(res mpi.RunResult) (Outcome, bool) {
	switch res.FirstError().(type) {
	case mpi.SegFault:
		return SegFault, true
	case mpi.MPIError:
		return MPIErr, true
	case mpi.AppError:
		return AppDetected, true
	case mpi.Killed:
		return InfLoop, true
	case mpi.NodeCrashed:
		if !anySurvivor(res) {
			return InfLoop, true
		}
		// Survivor-aware comparison decides SUCCESS vs WRONG_ANS.
	}
	if res.Deadlock || res.TimedOut {
		return InfLoop, true
	}
	return Success, false
}

// anySurvivor reports whether at least one rank finished without error.
func anySurvivor(res mpi.RunResult) bool {
	for _, rr := range res.Ranks {
		if rr.Err == nil {
			return true
		}
	}
	return false
}

// sameResults compares the per-rank reported values against the golden run
// with relative tolerance tol. Ranks that ended with an error are excluded:
// on the only path that reaches this comparison with per-rank errors
// present, those errors are node crashes, and a crashed node reports
// nothing — only the survivors' outputs are comparable.
func sameResults(golden, res mpi.RunResult, tol float64) bool {
	if len(golden.Ranks) != len(res.Ranks) {
		return false
	}
	for i := range golden.Ranks {
		if res.Ranks[i].Err != nil {
			continue
		}
		g, r := golden.Ranks[i].Values, res.Ranks[i].Values
		if len(g) != len(r) {
			return false
		}
		for j := range g {
			if !closeEnough(g[j], r[j], tol) {
				return false
			}
		}
	}
	return true
}

func closeEnough(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Counts tallies outcomes.
type Counts [NumOutcomes]int

// Add increments the tally for o.
func (c *Counts) Add(o Outcome) { c[o]++ }

// Total returns the number of tallied runs.
func (c *Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// ErrorRate returns the fraction of non-SUCCESS runs in [0,1].
func (c *Counts) ErrorRate() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(t-c[Success]) / float64(t)
}

// Fraction returns the share of outcome o in [0,1].
func (c *Counts) Fraction(o Outcome) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c[o]) / float64(t)
}

// Merge adds other into c.
func (c *Counts) Merge(other Counts) {
	for i := range c {
		c[i] += other[i]
	}
}

// RateLevel quantises an error rate in [0,1] into `levels` equal bands
// (the paper uses 2, 3 and 4 levels). Level 0 is the least sensitive.
func RateLevel(rate float64, levels int) int {
	if levels <= 1 {
		return 0
	}
	l := int(rate * float64(levels))
	if l >= levels {
		l = levels - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

// Level3 labels the three-band classification of the paper's Figures 8 and
// 11: low (<15%), med (15-85%), high (>85%).
func Level3(rate float64) int {
	switch {
	case rate < 0.15:
		return 0
	case rate <= 0.85:
		return 1
	default:
		return 2
	}
}
