// Package resilient implements the protected collective variants FastFIT's
// sensitivity results motivate: the paper argues for *adaptive*
// fault-tolerance — protect the collectives whose faults are frequent and
// severe, leave the tolerant ones alone — and its §III-C example criterion
// ("more than 20% error rate → enforce fault-tolerance") is exactly what
// core.Advise computes. This package supplies the enforcement side:
//
//   - ChecksummedAllreduce / ChecksummedAlltoall detect payload corruption by
//     carrying a CRC alongside the data (detection: turns silent
//     corruption into a visible, attributable error).
//   - VotedAllreduce executes the collective redundantly and majority-
//     votes the results (tolerance: masks a corrupted execution entirely).
//
// These mirror real mechanisms (checksummed transfers and redundant
// execution in fault-tolerant MPI research) and are exercised by the
// adaptive_protection example and the ablation tests, which measure how
// each variant shifts the Table I outcome distribution under injection.
package resilient

import (
	"hash/crc32"

	"github.com/fastfit/fastfit/internal/mpi"
)

// DetectedCorruption is raised (by panicking) when a checksummed variant
// observes payload corruption. The classifier maps application panics of
// this kind to APP_DETECTED — the whole point of detection: the failure is
// visible and attributable instead of silent.
type DetectedCorruption struct {
	Op string
}

func (d DetectedCorruption) Error() string {
	return "resilient: payload corruption detected in " + d.Op
}

// crcOf hashes a buffer's payload.
func crcOf(data []byte) uint32 {
	return crc32.ChecksumIEEE(data)
}

// ChecksummedAllreduce performs an allreduce whose inputs are protected by
// a CRC: every rank contributes crc(sendbuf) alongside the data through a
// second reduction (bitwise XOR of per-rank CRCs both before and after a
// barrier-separated re-read). If a rank's buffer changed between the two
// reads — the signature of a fault injected at the call boundary — the
// operation aborts with DetectedCorruption.
//
// Detection is per the paper's threat model: the fault lands in the
// *input* of the collective, so re-reading the input around the collective
// catches it.
func ChecksummedAllreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
	before := crcOf(send.Bytes())
	r.Allreduce(send, recv, count, dt, op, comm)
	after := crcOf(send.Bytes())
	// Agree on whether any rank saw its input change mid-operation.
	flag := int64(0)
	if before != after {
		flag = 1
	}
	r.ErrCheck(func() {
		if r.AllreduceInt64(flag, mpi.OpLor, comm) != 0 {
			panic(mpi.AppError{Rank: r.ID(), Message: DetectedCorruption{Op: "MPI_Allreduce"}.Error()})
		}
	})
}

// VotedAllreduce executes the allreduce three times over copies of the
// send buffer and majority-votes the result bytes, masking a single
// corrupted execution (redundant-execution fault tolerance). When all
// three disagree it aborts with DetectedCorruption rather than returning
// garbage.
func VotedAllreduce(r *mpi.Rank, send, recv *mpi.Buffer, count int, dt mpi.Datatype, op mpi.Op, comm mpi.Comm) {
	results := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		s := send.Clone()
		out := r.NewBuffer(recv.Len())
		r.Allreduce(s, out, count, dt, op, comm)
		results[i] = append([]byte(nil), out.Bytes()...)
		out.Release()
	}
	winner := -1
	for i := 0; i < 3 && winner < 0; i++ {
		for j := i + 1; j < 3; j++ {
			if bytesEqual(results[i], results[j]) {
				winner = i
				break
			}
		}
	}
	if winner < 0 {
		panic(mpi.AppError{Rank: r.ID(), Message: DetectedCorruption{Op: "MPI_Allreduce (voted)"}.Error()})
	}
	recv.WriteAt("voted allreduce result", 0, results[winner])
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
