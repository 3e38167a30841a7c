// Package fault implements FastFIT's fault model: single bit flips injected
// into the input parameters of MPI collective operations — the send and
// receive data buffers, the element count (or count vectors for v-variant
// collectives), the datatype, reduction-op and communicator handles, and
// the root rank. A fault is addressed to one (rank, call site, invocation)
// triple, the unit the paper calls a fault injection point. The same Fault
// also carries the two domains beyond the paper's: mid-run network faults
// (netfault.go) and flips in user Send/Recv calls (p2p.go).
package fault

import (
	"fmt"
	"math/rand"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Target names what a fault corrupts. It is one space for every fault
// domain: the collective input parameters, then the network targets, then
// the point-to-point parameters. Values are persisted in journals and
// campaign files, so a new target is only ever appended.
type Target int

const (
	TargetSendBuf   Target = iota // a data bit in the send buffer
	TargetRecvBuf                 // a data bit in the receive buffer
	TargetCount                   // the element count (32-bit, like a C int)
	TargetCountsVec               // an entry of a v-variant count vector
	TargetDatatype                // the datatype handle
	TargetOp                      // the reduction-op handle
	TargetRoot                    // the root rank
	TargetComm                    // the communicator handle

	// Network fault-domain targets (see netfault.go). They ride the same
	// Fault struct and injector plan machinery as parameter flips —
	// addressed to a (rank, site, invocation) triple — but are applied to
	// the run's Network instead of the call's arguments. Bit encodes the
	// peer (and, for drops, a burst length) instead of a bit index.
	TargetNetLink // permanent egress link failure at the faulted rank
	TargetNetDrop // transient egress message drops at the faulted rank
	TargetNetNode // the faulted rank's node crashes mid-collective

	// Point-to-point targets (see p2p.go): flips in a user Send or Recv,
	// addressed to the call's (rank, site, invocation) triple.
	TargetP2PData // a bit of a Send's payload
	TargetP2PTag  // the message tag
	TargetP2PPeer // the destination (Send) or source (Recv) rank
	NumTargets
)

var targetNames = [NumTargets]string{
	"sendbuf", "recvbuf", "count", "counts[]", "datatype", "op", "root", "comm",
	"net:link", "net:drop", "net:node",
	"data", "tag", "peer",
}

// IsNet reports whether the target belongs to the network fault domain
// (applied to the interconnect, not to call arguments).
func (t Target) IsNet() bool {
	return t == TargetNetLink || t == TargetNetDrop || t == TargetNetNode
}

// IsP2P reports whether the target is a point-to-point parameter (applied to
// a Send or Recv, never to a collective call).
func (t Target) IsP2P() bool {
	return t == TargetP2PData || t == TargetP2PTag || t == TargetP2PPeer
}

func (t Target) String() string {
	if t >= 0 && t < NumTargets {
		return targetNames[t]
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// collTargets lists the injectable parameters of each collective type,
// following the paper's methodology (buffer addresses are excluded: their
// sensitivity is trivially catastrophic).
var collTargets = map[mpi.CollType][]Target{
	mpi.CollBarrier:       {TargetComm},
	mpi.CollBcast:         {TargetSendBuf, TargetCount, TargetDatatype, TargetRoot, TargetComm},
	mpi.CollReduce:        {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetOp, TargetRoot, TargetComm},
	mpi.CollAllreduce:     {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetOp, TargetComm},
	mpi.CollScatter:       {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetRoot, TargetComm},
	mpi.CollGather:        {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetRoot, TargetComm},
	mpi.CollAllgather:     {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetComm},
	mpi.CollAlltoall:      {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetComm},
	mpi.CollAlltoallv:     {TargetSendBuf, TargetRecvBuf, TargetCountsVec, TargetDatatype, TargetComm},
	mpi.CollReduceScatter: {TargetSendBuf, TargetRecvBuf, TargetCountsVec, TargetDatatype, TargetOp, TargetComm},
	mpi.CollScan:          {TargetSendBuf, TargetRecvBuf, TargetCount, TargetDatatype, TargetOp, TargetComm},
	mpi.CollScatterv:      {TargetSendBuf, TargetRecvBuf, TargetCountsVec, TargetDatatype, TargetRoot, TargetComm},
	mpi.CollGatherv:       {TargetSendBuf, TargetRecvBuf, TargetCountsVec, TargetDatatype, TargetRoot, TargetComm},
}

// TargetsFor returns the injectable parameters of a collective type.
func TargetsFor(t mpi.CollType) []Target {
	return collTargets[t]
}

// BitSpace bounds the raw bit indices the random policies draw: every Bit a
// campaign records lies in [0, BitSpace). It is far wider than most targets
// (a handle has 32 bits), so a raw index names its flip only after Wrap has
// folded it onto the target's width — the effective fault.
const BitSpace = 1 << 20

// Wrap folds a raw bit index onto a parameter width bits wide. It is total:
// a negative index wraps like FlipBit's, and a zero width (an absent buffer,
// a target that is no parameter flip) folds every index to 0, because all of
// them do the same thing — nothing.
func Wrap(bit, width int) int {
	if width <= 0 {
		return 0
	}
	return ((bit % width) + width) % width
}

// Widths holds how many distinct single-bit flips each variable-width
// parameter of one collective call admits. Together with the fixed 32 bits
// of the scalar parameters it is the call's whole fault space, and it is
// what turns a raw (Target, Bit) into the flip Apply performs.
type Widths struct {
	Send   int // bits in the send buffer, 0 when absent
	Recv   int // bits in the receive buffer, 0 when absent
	Counts int // bits in the count vector a counts[] fault corrupts
}

// countsVec picks the vector a counts[] fault corrupts: the send counts
// when the call has them, the receive counts otherwise.
func countsVec(a *mpi.Args) []int32 {
	if len(a.SendCounts) > 0 {
		return a.SendCounts
	}
	return a.RecvCounts
}

// WidthsOf measures a call's arguments.
func WidthsOf(a *mpi.Args) Widths {
	return Widths{Send: 8 * a.Send.Len(), Recv: 8 * a.Recv.Len(), Counts: 32 * len(countsVec(a))}
}

// Of returns the width of one target: the number of distinct faults it has
// on a call of these widths. Network and point-to-point targets are not
// collective parameter flips and have none.
func (w Widths) Of(t Target) int {
	switch t {
	case TargetSendBuf:
		return w.Send
	case TargetRecvBuf:
		return w.Recv
	case TargetCountsVec:
		return w.Counts
	case TargetCount, TargetDatatype, TargetOp, TargetRoot, TargetComm:
		return 32
	}
	return 0
}

// EffectiveBit maps a raw (target, bit) to the bit Apply flips on a call of
// these widths. Two faults at one injection point with the same target and
// effective bit are the same fault.
func (w Widths) EffectiveBit(t Target, bit int) int { return Wrap(bit, w.Of(t)) }

// Space returns the size of a collective's fault space on a call of these
// widths: the sum of the widths of its injectable parameters.
func (w Widths) Space(collType mpi.CollType) int {
	n := 0
	for _, t := range TargetsFor(collType) {
		n += w.Of(t)
	}
	return n
}

// Fault is one planned fault, addressed to a fault injection point: a bit
// flip in a collective's or a Send/Recv's inputs, or a network fault.
type Fault struct {
	Rank       int     // world rank to corrupt
	Site       uintptr // call-site PC, from the profiling run
	Invocation int     // which invocation of the site on that rank
	Target     Target
	Bit        int // raw bit index; wrapped to the target's width at apply time
}

func (f Fault) String() string {
	return fmt.Sprintf("rank %d site %#x inv %d %s bit %d", f.Rank, f.Site, f.Invocation, f.Target, f.Bit)
}

// RandomFault draws a uniformly random (target, bit) pair for a collective
// type, matching the paper's per-test randomisation. Buffer bit indices
// wrap to the buffer length at apply time, so a large range is used here.
func RandomFault(rng *rand.Rand, rank int, site uintptr, invocation int, collType mpi.CollType) Fault {
	ts := TargetsFor(collType)
	target := ts[rng.Intn(len(ts))]
	bit := rng.Intn(BitSpace)
	return Fault{Rank: rank, Site: site, Invocation: invocation, Target: target, Bit: bit}
}

// DataBufferFault draws a random bit flip in the collective's data buffer,
// the paper's default injection policy (§V-C): "we inject faults into the
// data buffer of collective communications (if there is any data buffer)".
// Collectives without a data buffer (MPI_Barrier) fall back to a random
// input parameter — which is why faulty barriers are so lethal in the
// paper's Figures 8 and 11.
func DataBufferFault(rng *rand.Rand, rank int, site uintptr, invocation int, collType mpi.CollType) Fault {
	for _, t := range TargetsFor(collType) {
		if t == TargetSendBuf {
			return Fault{Rank: rank, Site: site, Invocation: invocation, Target: TargetSendBuf, Bit: rng.Intn(BitSpace)}
		}
	}
	return RandomFault(rng, rank, site, invocation, collType)
}

// RandomFaultOn draws a random bit for a fixed target.
func RandomFaultOn(rng *rand.Rand, rank int, site uintptr, invocation int, target Target) Fault {
	return Fault{Rank: rank, Site: site, Invocation: invocation, Target: target, Bit: rng.Intn(BitSpace)}
}

// Apply mutates the collective call's arguments according to the fault.
// It reports whether anything was actually flipped (an absent buffer, for
// example, cannot be corrupted). The bit it flips is
// WidthsOf(call.Args).EffectiveBit(f.Target, f.Bit) — the same function a
// campaign keys its trials by, so the key and the flip cannot drift.
//
// Three targets mutate application memory in place, where the flip outlives
// the call unless the call itself overwrites it: TargetSendBuf and
// TargetRecvBuf flip a bit of the caller's buffer, TargetCountsVec a bit of
// the caller's count slice (Args aliases all three). The five scalar targets
// flip a field of the runtime's private Args copy, which dies with the call.
// The reconvergence cut (mpi/fork.go, part 3) depends on exactly this split.
func (f Fault) Apply(call *mpi.CollectiveCall) bool {
	a := call.Args
	width := WidthsOf(a).Of(f.Target)
	if width == 0 {
		return false
	}
	bit := Wrap(f.Bit, width)
	flip32 := func(v int32) int32 { return v ^ (1 << (bit % 32)) }
	switch f.Target {
	case TargetSendBuf:
		a.Send.FlipBit(bit)
	case TargetRecvBuf:
		a.Recv.FlipBit(bit)
	case TargetCount:
		a.Count = flip32(a.Count)
	case TargetCountsVec:
		vec := countsVec(a)
		vec[bit/32] = flip32(vec[bit/32])
	case TargetDatatype:
		a.Dtype = mpi.Datatype(flip32(int32(a.Dtype)))
	case TargetOp:
		a.Op = mpi.Op(flip32(int32(a.Op)))
	case TargetRoot:
		a.Root = flip32(a.Root)
	case TargetComm:
		a.Comm = mpi.Comm(flip32(int32(a.Comm)))
	}
	return true
}
