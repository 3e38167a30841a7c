package resilient

// Topology-aware fault-tolerant ring collectives (the "ftring" variant).
// Both collectives move data exclusively between ring-adjacent ranks, so
// their link footprint is exactly the n ring edges — and when permanent
// at-start link failures break some of those edges, every rank recomputes
// the same alternative schedule from the same constant inputs:
//
//   - 0 broken edges: a line schedule rooted at rank 0 — the caravan runs
//     along the line in both directions (the wrap edge simply goes
//     unused), and the reduce/broadcast chain runs head to tail and back.
//   - 1 broken edge: the same schedule re-rooted just past the break, so
//     no data crosses the broken edge.
//   - 2+ broken edges: the ring is partitioned — no schedule can connect
//     all ranks, so the collective aborts visibly (APP_DETECTED) instead
//     of hanging or silently computing over a partition.
//
// The break set is computed from at-start state only (AliveAtStart,
// PathBlocked) so all ranks agree without communicating; mid-run neighbor
// crashes are caught by RecvOrFail like in hbreorg. A message lost to a
// *mid-run* link fault leaves the receiver blocked, and the run ends as a
// deadlock once every rank waits (INF_LOOP) — detecting in-flight loss would
// require timeouts, which are exactly the nondeterminism this harness
// refuses.

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/mpi"
)

// ringBreaks returns the broken directed ring edges as the list of u whose
// edge u -> (u+1)%n is unusable, from constant at-start state.
func ringBreaks(r *mpi.Rank) []int {
	n := r.NumRanks()
	var breaks []int
	for u := 0; u < n; u++ {
		v := (u + 1) % n
		if !r.AliveAtStart(u) || !r.AliveAtStart(v) || r.PathBlocked(u, v) || r.PathBlocked(v, u) {
			breaks = append(breaks, u)
		}
	}
	return breaks
}

// ringSchedule resolves the break set into a line head position. ok=false
// means the ring is partitioned. With no breaks the schedule is rooted at
// rank 0 (chain collectives then simply never use the wrap edge).
func ringSchedule(r *mpi.Rank, opName string) (head int) {
	breaks := ringBreaks(r)
	switch len(breaks) {
	case 0:
		return 0
	case 1:
		return (breaks[0] + 1) % r.NumRanks()
	default:
		r.Abort(fmt.Sprintf("ftring: ring partitioned by %d failed links/nodes in %s", len(breaks), opName))
		return 0 // unreachable
	}
}

func ftPeerFailed(r *mpi.Rank, peer int, phase string) {
	r.Abort(fmt.Sprintf("ftring: rank %d failed during %s", peer, phase))
}

// FTRingAlltoall is the topology-aware fault-tolerant alltoall: a buffer
// caravan along the (possibly re-rooted) line. Rightward rounds move every
// rank's full send buffer one line position per round toward the tail;
// leftward rounds mirror it toward the head. Each rank extracts its own
// block from every buffer that passes through.
func FTRingAlltoall(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, comm mpi.Comm) {
	n := r.NumRanks()
	blk := count * dt.Size()
	me := r.ID()
	recv.WriteAt("ftring alltoall self block", me*blk, send.Bytes()[me*blk:(me+1)*blk])
	if n == 1 {
		return
	}
	seq := r.LibSeq("ftring")
	head := ringSchedule(r, "alltoall")
	lp := (me - head + n) % n // my line position, 0 = head
	at := func(p int) int { return (head + p) % n }

	// Rightward sweep: at round k, line position p in [k-1, n-2] forwards
	// the buffer originated at position p-(k-1); position p >= k receives
	// the buffer originated at p-k.
	cur := append([]byte(nil), send.Bytes()[:n*blk]...)
	for k := 1; k < n; k++ {
		if lp >= k-1 && lp <= n-2 {
			r.Send(comm, at(lp+1), mpi.LibTag(seq, 2*k), cur)
		}
		if lp >= k {
			data, ok := r.RecvOrFail(comm, at(lp-1), mpi.LibTag(seq, 2*k))
			if !ok {
				ftPeerFailed(r, at(lp-1), "alltoall rightward sweep")
			}
			cur = data
			origin := at(lp - k)
			recv.WriteAt("ftring alltoall block", origin*blk, cur[me*blk:(me+1)*blk])
		}
	}

	// Leftward sweep, mirrored.
	cur = append(cur[:0], send.Bytes()[:n*blk]...)
	for k := 1; k < n; k++ {
		if n-1-lp >= k-1 && lp >= 1 {
			r.Send(comm, at(lp-1), mpi.LibTag(seq, 2*k+1), cur)
		}
		if lp <= n-1-k {
			data, ok := r.RecvOrFail(comm, at(lp+1), mpi.LibTag(seq, 2*k+1))
			if !ok {
				ftPeerFailed(r, at(lp+1), "alltoall leftward sweep")
			}
			cur = data
			origin := at(lp + k)
			recv.WriteAt("ftring alltoall block", origin*blk, cur[me*blk:(me+1)*blk])
		}
	}
}

// FTRingAllreduce is the ring specialist's allreduce: a chain reduction
// from the line's head to its tail followed by a chain broadcast back.
// 2(n-1) neighbor messages, none crossing a broken edge.
func FTRingAllreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
	n := r.NumRanks()
	nb := count * dt.Size()
	acc := append([]byte(nil), send.Bytes()[:nb]...)
	if n > 1 {
		seq := r.LibSeq("ftring")
		head := ringSchedule(r, "allreduce")
		me := r.ID()
		lp := (me - head + n) % n
		at := func(p int) int { return (head + p) % n }

		if lp > 0 {
			partial, ok := r.RecvOrFail(comm, at(lp-1), mpi.LibTag(seq, 0))
			if !ok {
				ftPeerFailed(r, at(lp-1), "allreduce chain")
			}
			// Keep head-to-tail combination order: partial op mine.
			mpi.Combine(op, dt, partial, acc, count)
			acc = partial
		}
		if lp < n-1 {
			r.Send(comm, at(lp+1), mpi.LibTag(seq, 0), acc)
			data, ok := r.RecvOrFail(comm, at(lp+1), mpi.LibTag(seq, 1))
			if !ok {
				ftPeerFailed(r, at(lp+1), "allreduce broadcast chain")
			}
			copy(acc, data)
		}
		if lp > 0 {
			r.Send(comm, at(lp-1), mpi.LibTag(seq, 1), acc)
		}
	}
	recv.WriteAt("ftring allreduce result", 0, acc)
}
