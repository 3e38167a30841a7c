package fault

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Point-to-point fault injection: the extension the paper's conclusion
// proposes ("these techniques ... can be applied to other programming
// elements of an HPC application"). The fault model mirrors the collective
// one — single bit flips in the call's inputs — addressed to a
// (rank, call site, invocation) triple of a Send or Recv.

// P2PTarget names the point-to-point input parameter a fault corrupts.
type P2PTarget int

const (
	P2PTargetData P2PTarget = iota // a bit of the send payload
	P2PTargetTag                   // the message tag
	P2PTargetPeer                  // the destination/source rank
	NumP2PTargets
)

var p2pTargetNames = [NumP2PTargets]string{"data", "tag", "peer"}

func (t P2PTarget) String() string {
	if t >= 0 && t < NumP2PTargets {
		return p2pTargetNames[t]
	}
	return fmt.Sprintf("p2ptarget(%d)", int(t))
}

// P2PTargetsFor returns the injectable parameters of a p2p kind: receives
// have no local payload to corrupt.
func P2PTargetsFor(kind mpi.P2PKind) []P2PTarget {
	if kind == mpi.P2PSend {
		return []P2PTarget{P2PTargetData, P2PTargetTag, P2PTargetPeer}
	}
	return []P2PTarget{P2PTargetTag, P2PTargetPeer}
}

// P2PFault is one planned bit flip in a point-to-point call.
type P2PFault struct {
	Rank       int
	Site       uintptr
	Invocation int
	Target     P2PTarget
	Bit        int
}

func (f P2PFault) String() string {
	return fmt.Sprintf("rank %d p2p site %#x inv %d %s bit %d", f.Rank, f.Site, f.Invocation, f.Target, f.Bit)
}

// RandomP2PFault draws a uniform (target, bit) pair for a p2p kind.
func RandomP2PFault(rng *rand.Rand, rank int, site uintptr, invocation int, kind mpi.P2PKind) P2PFault {
	ts := P2PTargetsFor(kind)
	return P2PFault{
		Rank: rank, Site: site, Invocation: invocation,
		Target: ts[rng.Intn(len(ts))],
		Bit:    rng.Intn(BitSpace),
	}
}

// Apply mutates the call's arguments; it reports whether anything flipped.
func (f P2PFault) Apply(call *mpi.P2PCall) bool {
	a := call.Args
	switch f.Target {
	case P2PTargetData:
		if len(a.Data) == 0 {
			return false
		}
		bit := Wrap(f.Bit, 8*len(a.Data))
		a.Data[bit/8] ^= 1 << (bit % 8)
	case P2PTargetTag:
		a.Tag ^= 1 << Wrap(f.Bit, 32)
	case P2PTargetPeer:
		a.Peer ^= 1 << Wrap(f.Bit, 32)
	default:
		return false
	}
	return true
}

// P2PInjector is a hook applying planned point-to-point faults; it also
// satisfies the collective Hook interface (as a no-op) so it can be used
// directly as a world hook, optionally chaining to a downstream hook.
type P2PInjector struct {
	mpi.NopHook
	mu      sync.Mutex
	faults  []P2PFault
	applied []P2PFault
	chain   mpi.Hook
}

var _ mpi.P2PHook = (*P2PInjector)(nil)

// NewP2PInjector builds an injector for the given faults.
func NewP2PInjector(chain mpi.Hook, faults ...P2PFault) *P2PInjector {
	return &P2PInjector{faults: faults, chain: chain}
}

// BeforeP2P implements mpi.P2PHook.
func (in *P2PInjector) BeforeP2P(call *mpi.P2PCall) {
	in.mu.Lock()
	for _, f := range in.faults {
		if f.Rank == call.Rank && f.Site == call.Site && f.Invocation == call.Invocation {
			if f.Apply(call) {
				in.applied = append(in.applied, f)
			}
		}
	}
	in.mu.Unlock()
	if p, ok := in.chain.(mpi.P2PHook); ok {
		p.BeforeP2P(call)
	}
}

// BeforeCollective chains collective events downstream.
func (in *P2PInjector) BeforeCollective(call *mpi.CollectiveCall) {
	if in.chain != nil {
		in.chain.BeforeCollective(call)
	}
}

// AfterCollective chains collective events downstream.
func (in *P2PInjector) AfterCollective(call *mpi.CollectiveCall) {
	if in.chain != nil {
		in.chain.AfterCollective(call)
	}
}

// Applied returns the faults that actually flipped something.
func (in *P2PInjector) Applied() []P2PFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]P2PFault(nil), in.applied...)
}
