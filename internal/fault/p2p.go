package fault

import (
	"math/rand"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Point-to-point fault injection: the extension the paper's conclusion
// proposes ("these techniques ... can be applied to other programming
// elements of an HPC application"). A p2p fault is an ordinary Fault with a
// p2p target — single bit flips in the call's inputs, addressed to a
// (rank, call site, invocation) triple of a Send or Recv — and the Injector
// applies it through its P2PHook view (Injector.Hook).

// P2PTargetsFor returns the injectable parameters of a p2p kind: receives
// have no local payload to corrupt.
func P2PTargetsFor(kind mpi.P2PKind) []Target {
	if kind == mpi.P2PSend {
		return []Target{TargetP2PData, TargetP2PTag, TargetP2PPeer}
	}
	return []Target{TargetP2PTag, TargetP2PPeer}
}

// RandomP2PFault draws a uniform (target, bit) pair for a p2p kind.
func RandomP2PFault(rng *rand.Rand, rank int, site uintptr, invocation int, kind mpi.P2PKind) Fault {
	ts := P2PTargetsFor(kind)
	return Fault{
		Rank: rank, Site: site, Invocation: invocation,
		Target: ts[rng.Intn(len(ts))],
		Bit:    rng.Intn(BitSpace),
	}
}

// ApplyP2P mutates a Send or Recv call's arguments according to the fault;
// it reports whether anything flipped. A fault with a target that is not a
// p2p parameter flips nothing.
func (f Fault) ApplyP2P(call *mpi.P2PCall) bool {
	a := call.Args
	switch f.Target {
	case TargetP2PData:
		if len(a.Data) == 0 {
			return false
		}
		bit := Wrap(f.Bit, 8*len(a.Data))
		a.Data[bit/8] ^= 1 << (bit % 8)
	case TargetP2PTag:
		a.Tag ^= 1 << Wrap(f.Bit, 32)
	case TargetP2PPeer:
		a.Peer ^= 1 << Wrap(f.Bit, 32)
	default:
		return false
	}
	return true
}
