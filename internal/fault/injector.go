package fault

import (
	"sync"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Injector is an mpi.Hook that applies planned faults when the addressed
// (rank, site, invocation) triples come up during execution. It is safe for
// concurrent use by all ranks of a world.
//
// The Injector itself is not an mpi.P2PHook: a world whose hook is one
// captures a call stack at every Send and Recv, and every application
// point-to-points. A plan that holds a p2p target is served through the
// view Hook returns instead.
type Injector struct {
	mu      sync.Mutex
	faults  []Fault
	applied []Fault
	misses  []Fault
	chain   mpi.Hook // optional downstream hook (e.g. a profiler)
	net     *mpi.Network
}

var (
	_ mpi.Hook    = (*Injector)(nil)
	_ mpi.P2PHook = p2pView{}
)

// NewInjector builds an injector for the given faults. chain, if non-nil,
// receives every collective hook event after injection has been considered.
func NewInjector(chain mpi.Hook, faults ...Fault) *Injector {
	return &Injector{faults: faults, chain: chain}
}

// Hook returns the hook a run installs to execute the plan: the injector
// itself, or, when the plan holds a point-to-point target, a view of it that
// also implements mpi.P2PHook.
func (in *Injector) Hook() mpi.Hook {
	for _, f := range in.faults {
		if f.Target.IsP2P() {
			return p2pView{in}
		}
	}
	return in
}

// p2pView is an Injector that also sees user Send/Recv calls.
type p2pView struct{ *Injector }

// BeforeP2P implements mpi.P2PHook.
func (v p2pView) BeforeP2P(call *mpi.P2PCall) {
	in := v.Injector
	in.mu.Lock()
	for _, f := range in.faults {
		if !f.Target.IsP2P() || f.Rank != call.Rank || f.Site != call.Site || f.Invocation != call.Invocation {
			continue
		}
		if f.ApplyP2P(call) {
			in.applied = append(in.applied, f)
		} else {
			in.misses = append(in.misses, f)
		}
	}
	in.mu.Unlock()
}

// AttachNetwork routes this run's net-target faults (TargetNetLink/NetDrop/
// NetNode) to the given network. Without one, net faults are recorded as
// misses — their target is absent, like a flip aimed at an empty buffer.
// Call before the run starts.
func (in *Injector) AttachNetwork(net *mpi.Network) {
	in.mu.Lock()
	in.net = net
	in.mu.Unlock()
}

// BeforeCollective implements mpi.Hook. It runs on the calling rank's own
// goroutine, which is what makes mid-run egress faults origin-scoped: the
// fault state flipped here is only ever consulted by this same goroutine's
// subsequent sends.
func (in *Injector) BeforeCollective(call *mpi.CollectiveCall) {
	var crash *Fault
	in.mu.Lock()
	for i := range in.faults {
		f := in.faults[i]
		if f.Target.IsP2P() || f.Rank != call.Rank || f.Site != call.Site || f.Invocation != call.Invocation {
			continue
		}
		if f.Target.IsNet() {
			if in.applyNetLocked(f, &crash) {
				in.applied = append(in.applied, f)
			} else {
				in.misses = append(in.misses, f)
			}
			continue
		}
		if f.Apply(call) {
			in.applied = append(in.applied, f)
		} else {
			in.misses = append(in.misses, f)
		}
	}
	in.mu.Unlock()
	// A node crash kills the rank at the collective's entry. The panic is
	// raised after the lock is released (and instead of the downstream
	// hook: a crashed node profiles nothing).
	if crash != nil {
		panic(mpi.NodeCrashed{Rank: call.Rank, Reason: crash.String()})
	}
	if in.chain != nil {
		in.chain.BeforeCollective(call)
	}
}

// applyNetLocked applies one net-target fault. Held under in.mu; crash
// faults are deferred to the caller so the panic happens outside the lock.
func (in *Injector) applyNetLocked(f Fault, crash **Fault) bool {
	switch f.Target {
	case TargetNetNode:
		fc := f
		*crash = &fc
		return true
	case TargetNetLink, TargetNetDrop:
		if in.net == nil {
			return false
		}
		// Bit selects one of the faulted rank's real outgoing links, so
		// every link fault lands on a link that actually carries traffic.
		nbrs := in.net.Topology().Neighbors(f.Rank)
		if len(nbrs) == 0 {
			return false
		}
		hop := nbrs[f.Bit%len(nbrs)]
		if f.Target == TargetNetLink {
			in.net.FailEgress(f.Rank, hop)
		} else {
			in.net.DropEgress(f.Rank, hop, netDropCount(f.Bit, len(nbrs)))
		}
		return true
	}
	return false
}

// AfterCollective implements mpi.Hook.
func (in *Injector) AfterCollective(call *mpi.CollectiveCall) {
	if in.chain != nil {
		in.chain.AfterCollective(call)
	}
}

// Applied returns the faults that were actually applied during the run.
func (in *Injector) Applied() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.applied...)
}

// Missed returns faults whose addressed call occurred but whose target was
// not present (e.g. an empty buffer).
func (in *Injector) Missed() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.misses...)
}
