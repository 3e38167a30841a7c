package apps

import (
	"math"

	"github.com/fastfit/fastfit/internal/mpi"
)

// MemLimitElems is the simulated per-rank physical-memory limit, in 8-byte
// elements. Applications route allocation sizes that depend on communicated
// values through GuardAlloc, so a corrupted count that would make a real
// process die in malloc produces a simulated crash here instead of
// exhausting the host machine.
const MemLimitElems = 1 << 22

// GuardAlloc validates an allocation request of n elements and panics with
// a simulated segmentation fault when it is negative or exceeds the
// simulated memory limit.
func GuardAlloc(op string, n int) int {
	if n < 0 || n > MemLimitElems {
		panic(mpi.SegFault{Op: op + " allocation", Offset: 0, Length: n, Bound: MemLimitElems})
	}
	return n
}

// RoundSig rounds v to sig significant decimal digits, mirroring the
// limited precision of a benchmark's printed output.
func RoundSig(v float64, sig int) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	mag := math.Pow(10, float64(sig)-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*mag) / mag
}
