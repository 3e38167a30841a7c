package mpi

import "fmt"

// ErrClass enumerates the MPI error classes the runtime can raise. They are
// a subset of the MPI standard's error classes, restricted to the ones
// reachable through corrupted collective arguments.
type ErrClass int

const (
	ErrNone     ErrClass = iota
	ErrCount             // negative or otherwise nonsensical element count
	ErrType              // unknown datatype handle
	ErrOp                // unknown reduction-op handle
	ErrRoot              // root rank outside the communicator
	ErrComm              // invalid communicator handle (when validation is on)
	ErrRank              // peer rank outside the communicator
	ErrTag               // tag outside the allowed range
	ErrTruncate          // incoming message longer than the posted receive
	ErrBuffer            // nil buffer where one is required
	ErrInternal          // internal consistency failure
)

var errClassNames = map[ErrClass]string{
	ErrNone:     "MPI_SUCCESS",
	ErrCount:    "MPI_ERR_COUNT",
	ErrType:     "MPI_ERR_TYPE",
	ErrOp:       "MPI_ERR_OP",
	ErrRoot:     "MPI_ERR_ROOT",
	ErrComm:     "MPI_ERR_COMM",
	ErrRank:     "MPI_ERR_RANK",
	ErrTag:      "MPI_ERR_TAG",
	ErrTruncate: "MPI_ERR_TRUNCATE",
	ErrBuffer:   "MPI_ERR_BUFFER",
	ErrInternal: "MPI_ERR_INTERN",
}

func (c ErrClass) String() string {
	if s, ok := errClassNames[c]; ok {
		return s
	}
	return fmt.Sprintf("MPI_ERR_UNKNOWN(%d)", int(c))
}

// MPIError is raised (by panicking) when parameter validation fails. This
// models MPI_ERRORS_ARE_FATAL, the default error handler on MPI_COMM_WORLD:
// the application is aborted and the job scheduler reports an MPI error.
type MPIError struct {
	Class  ErrClass
	Rank   int
	Op     string // the MPI operation, e.g. "MPI_Allreduce"
	Detail string
}

func (e MPIError) Error() string {
	return fmt.Sprintf("rank %d in %s: %s: %s", e.Rank, e.Op, e.Class, e.Detail)
}

// SegFault is raised (by panicking) when a simulated memory access falls
// outside a buffer's bounds, standing in for the SIGSEGV a real MPI process
// receives when a corrupted count or datatype walks off the end of a user
// buffer.
type SegFault struct {
	Op     string // operation performing the access
	Offset int    // byte offset of the attempted access
	Length int    // number of bytes the access covered
	Bound  int    // size of the valid region
}

func (s SegFault) Error() string {
	return fmt.Sprintf("segmentation fault in %s: access [%d,%d) outside region of %d bytes",
		s.Op, s.Offset, s.Offset+s.Length, s.Bound)
}

// AppError is raised when the application's own error handling detects a
// problem and aborts (the APP_DETECTED response class).
type AppError struct {
	Rank    int
	Message string
}

func (e AppError) Error() string {
	return fmt.Sprintf("rank %d application abort: %s", e.Rank, e.Message)
}

// Killed is raised inside blocked ranks when the world is cancelled, either
// because every surviving rank blocked or because the wall-clock timeout
// expired. The runner maps it to the INF_LOOP response class.
type Killed struct {
	Reason string
}

func (k Killed) Error() string { return "rank killed: " + k.Reason }

// NodeCrashed is raised when the network fault domain takes a node (and the
// rank on it) down — either before launch (RunOptions.CrashedRanks) or
// mid-collective via an injected crash fault. It is a *fabric-level* death,
// not an application or MPI failure: classification of a crash-only run is
// decided by what the surviving ranks manage to do, so FirstError ranks it
// below every other error kind.
type NodeCrashed struct {
	Rank   int
	Reason string
}

func (e NodeCrashed) Error() string {
	return fmt.Sprintf("rank %d node crashed: %s", e.Rank, e.Reason)
}

// Divergence is raised when a forked run's replayed prefix leaves the
// golden tape: the application made a call the recording run did not make
// at that point, or returned with recorded events still ahead of it. The
// prefix is the golden run's by construction, so this is a fault of the
// harness — a checkpoint that leaves out state the prefix changed, say — and
// never an outcome of the application. Run reports it in
// RunResult.Divergence.
type Divergence struct {
	Rank   int
	Detail string
}

func (d Divergence) Error() string {
	return fmt.Sprintf("rank %d: fork replay divergence: %s", d.Rank, d.Detail)
}

// abortf raises an MPIError for the given rank and operation.
func abortf(rank int, op string, class ErrClass, format string, args ...any) {
	panic(MPIError{Class: class, Rank: rank, Op: op, Detail: fmt.Sprintf(format, args...)})
}
