package resilient

// The algorithm zoo. Each protected-collective scheme in this package is
// listed behind the common Algorithm interface so campaigns can sweep
// *algorithm variant x fault model* as a first-class parameter axis: the
// same application binary, the same fault plan, one campaign per variant,
// and the shift in the Table I outcome distribution is the measurement
// (examples/algorithm_shootout reports it as overhead vs. coverage).
//
// The zoo spans three fault-tolerance strategies:
//
//   - payload protection (checksum, voted, corrected): detects or masks
//     corrupted collective *data* — the paper's original fault model;
//   - failure detection + reorganization (hbreorg): survives *node
//     crashes* by building its trees over the surviving ranks and
//     detecting mid-run deaths at message-consumption points;
//   - topology-aware rerouting (ftring): survives *link failures* by
//     recomputing its ring schedule around broken edges.
//
// baseline is the unprotected control: the runtime's built-in collectives.

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Algorithm is one collective-implementation variant. Implementations must
// be deterministic given the run's fault plan and must operate on
// mpi.CommWorld (the reorganizing variants compute survivor sets in world
// ranks).
type Algorithm interface {
	// Name is the variant's name in the zoo, e.g. "corrected".
	Name() string
	// Allreduce computes recv = op-reduction of send across live ranks.
	Allreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm)
	// Alltoall exchanges count-element blocks between live ranks; blocks
	// from dead ranks are left untouched in recv.
	Alltoall(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm)
}

// algorithms is the zoo, sorted by name.
var algorithms = []Algorithm{
	funcAlg{
		name: "baseline",
		allreduce: func(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
			r.Allreduce(send, recv, count, dt, op, comm)
		},
		alltoall: func(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm) {
			r.Alltoall(send, recv, count, dt, comm)
		},
	},
	funcAlg{name: "checksum", allreduce: ChecksummedAllreduce, alltoall: ChecksummedAlltoall},
	funcAlg{name: "corrected", allreduce: CorrectedAllreduce, alltoall: ChecksummedAlltoall},
	funcAlg{name: "ftring", allreduce: FTRingAllreduce, alltoall: FTRingAlltoall},
	funcAlg{name: "hbreorg", allreduce: HeartbeatAllreduce, alltoall: HeartbeatAlltoall},
	funcAlg{name: "voted", allreduce: VotedAllreduce, alltoall: ChecksummedAlltoall},
}

// Get resolves an algorithm by name; "" means "baseline". Unknown names
// return an error listing the variants.
func Get(name string) (Algorithm, error) {
	if name == "" {
		name = "baseline"
	}
	for _, a := range algorithms {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("resilient: unknown algorithm %q (have %v)", name, Names())
}

// Names returns the algorithm names, sorted.
func Names() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.Name()
	}
	return out
}

// funcAlg adapts a pair of functions to Algorithm.
type funcAlg struct {
	name      string
	allreduce func(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm)
	alltoall  func(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm)
}

func (f funcAlg) Name() string { return f.name }
func (f funcAlg) Allreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
	f.allreduce(r, send, recv, count, dt, op, comm)
}
func (f funcAlg) Alltoall(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm) {
	f.alltoall(r, send, recv, count, dt, comm)
}

// ChecksummedAlltoall performs an alltoall whose inputs are protected by a
// CRC, mirroring ChecksummedAllreduce: every rank re-reads its send buffer
// around the collective and the ranks agree (logical-or reduction) on
// whether any input changed mid-operation.
func ChecksummedAlltoall(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm) {
	before := crcOf(send.Bytes())
	r.Alltoall(send, recv, count, dt, comm)
	flag := int64(0)
	if crcOf(send.Bytes()) != before {
		flag = 1
	}
	r.ErrCheck(func() {
		if r.AllreduceInt64(flag, mpi.OpLor, comm) != 0 {
			panic(mpi.AppError{Rank: r.ID(), Message: DetectedCorruption{Op: "MPI_Alltoall"}.Error()})
		}
	})
}
