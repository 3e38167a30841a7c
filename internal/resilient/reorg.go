package resilient

// Failure detection with dynamic tree reorganization (the "hbreorg"
// variant). Where the baseline collectives hang forever when a peer's node
// dies (INF_LOOP), hbreorg keeps going:
//
//   - Ranks dead *at run start* are simply left out: every rank computes
//     the identical survivor set from mpi.(*Rank).InitialLiveRanks (an
//     immutable, globally consistent view) and builds a compacted binomial
//     tree over it — the surviving ranks complete the collective normally.
//   - Ranks dying *mid-run* are detected at the message-consumption point:
//     every receive is an mpi.RecvOrFail, whose "peer is dead and sent
//     nothing" verdict is a pure function of the dying rank's program
//     order. Detection aborts the application visibly (APP_DETECTED) —
//     the job fails fast and attributably instead of hanging.
//
// A production implementation would learn of deaths from heartbeats, a
// wall-clock sample; here detection is a receive's verdict, so campaign
// outcomes never depend on timer scheduling.
//
// Note the deliberate asymmetry: reorganization uses alive-at-*start*
// membership, never a mid-run liveness snapshot. A mid-run snapshot is
// schedule-dependent — two ranks sampling at slightly different times
// would build different trees and the collective would corrupt or hang
// nondeterministically. This mirrors real FT-MPI designs, where membership
// changes only commit at well-defined epochs.

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/mpi"
)

// survivorPos returns the survivor set and the caller's index within it.
func survivorPos(r *mpi.Rank) ([]int, int) {
	s := r.InitialLiveRanks()
	for i, rank := range s {
		if rank == r.ID() {
			return s, i
		}
	}
	// Unreachable: the caller is running, so it is alive at start.
	panic(mpi.AppError{Rank: r.ID(), Message: "hbreorg: calling rank missing from survivor set"})
}

func peerFailed(r *mpi.Rank, peer int, phase string) {
	r.Abort(fmt.Sprintf("hbreorg: rank %d failed during %s (detected by failure detector)", peer, phase))
}

// HeartbeatAllreduce is a crash-surviving allreduce: a binomial reduce to
// the lowest surviving rank followed by a binomial broadcast, both over the
// compacted survivor set, with every receive failure-detected.
func HeartbeatAllreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
	seq := r.LibSeq("hbreorg")
	s, pos := survivorPos(r)
	n := len(s)
	nb := count * dt.Size()
	acc := append([]byte(nil), send.Bytes()[:nb]...)

	// Reduce toward s[0]: at bit k, ranks with that bit set forward their
	// partial accumulation to pos-k and leave; the rest absorb pos+k.
	mask := 1
	for mask < n {
		if pos&mask != 0 {
			r.Send(comm, s[pos-mask], mpi.LibTag(seq, 0), acc)
			break
		}
		if pos+mask < n {
			data, ok := r.RecvOrFail(comm, s[pos+mask], mpi.LibTag(seq, 0))
			if !ok {
				peerFailed(r, s[pos+mask], "allreduce reduce phase")
			}
			mpi.Combine(op, dt, acc, data, count)
		}
		mask <<= 1
	}

	// Broadcast the result back down the same binomial tree.
	mask = 1
	for mask < n {
		if pos&mask != 0 {
			data, ok := r.RecvOrFail(comm, s[pos-mask], mpi.LibTag(seq, 1))
			if !ok {
				peerFailed(r, s[pos-mask], "allreduce broadcast phase")
			}
			copy(acc, data)
			break
		}
		mask <<= 1
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if pos+m < n {
			r.Send(comm, s[pos+m], mpi.LibTag(seq, 1), acc)
		}
	}
	recv.WriteAt("hbreorg allreduce result", 0, acc)
}

// HeartbeatAlltoall is a crash-surviving alltoall: pairwise exchange over
// the compacted survivor set (round k pairs each survivor with the one k
// positions ahead/behind). Blocks belonging to dead ranks are neither sent
// nor received — their slots in recv are left untouched.
func HeartbeatAlltoall(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm) {
	seq := r.LibSeq("hbreorg")
	s, pos := survivorPos(r)
	n := len(s)
	blk := count * dt.Size()
	me := r.ID()

	recv.WriteAt("hbreorg alltoall self block", me*blk, send.Bytes()[me*blk:(me+1)*blk])
	for k := 1; k < n; k++ {
		to := s[(pos+k)%n]
		from := s[(pos-k+n)%n]
		r.Send(comm, to, mpi.LibTag(seq, k), send.Bytes()[to*blk:(to+1)*blk])
		data, ok := r.RecvOrFail(comm, from, mpi.LibTag(seq, k))
		if !ok {
			peerFailed(r, from, "alltoall exchange")
		}
		recv.WriteAt("hbreorg alltoall block", from*blk, data)
	}
}
