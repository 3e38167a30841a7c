package mpi

// Network overlays fault state on a Topology. It is the runtime half of the
// network fault domain: the injector flips link and egress bits here, and
// post consults deliver() before enqueueing a message at its destination.
//
// Determinism contract ("anything time-varying is origin-scoped"):
//
//   - Permanent at-start link failures (FailLink, applied before the run
//     starts) are constant for the whole run, so they may use full
//     route-traversal semantics: any message whose deterministic route
//     crosses a down link is dropped, regardless of sender.
//   - Mid-run state — egress failures (FailEgress) and transient drop
//     counters (DropEgress) — is scoped to the originating rank: it only
//     affects messages *sent by that rank* whose first hop matches. The
//     injector applies these on the faulted rank's own goroutine, and the
//     same goroutine later consults them in post, so whether a given
//     message is dropped is a pure function of that rank's program order.
//     Globally-visible time-varying state would make drops depend on the
//     scheduler's interleaving, and classification would stop being
//     deterministic.

import "sync/atomic"

// Network is the faultable interconnect for one run. Build one per run with
// NewNetwork and pass it via RunOptions.Network; at-start faults are applied
// before Run, mid-run faults by the injector during the run.
type Network struct {
	topo Topology
	n    int

	// linkDown marks permanently failed directed links [u*n+v]. Written
	// only before the run starts (FailLink); constant during the run, so
	// every sender may walk its route against it.
	linkDown []atomic.Bool
	// egressDown marks mid-run egress failures [src*n+firstHop]: messages
	// originated by src whose route leaves via firstHop are dropped.
	// Origin-scoped (see the package comment).
	egressDown []atomic.Bool
	// egressDrop holds transient drop budgets [src*n+firstHop]: each send
	// decrements until exhausted. Origin-scoped.
	egressDrop []atomic.Int32

	linksDown atomic.Int64 // undirected down links (for progress display)
}

// NewNetwork builds a clean (fault-free) network over topo.
func NewNetwork(topo Topology) *Network {
	n := topo.Nodes()
	return &Network{
		topo:       topo,
		n:          n,
		linkDown:   make([]atomic.Bool, n*n),
		egressDown: make([]atomic.Bool, n*n),
		egressDrop: make([]atomic.Int32, n*n),
	}
}

// Topology returns the topology the network overlays.
func (nw *Network) Topology() Topology { return nw.topo }

func (nw *Network) valid(r int) bool { return r >= 0 && r < nw.n }

// FailLink permanently fails the physical link between a and b (both
// directions). It must only be called before the run starts: at-start link
// state is the one piece of fault state that is globally visible, and that
// is only sound because it never changes mid-run.
func (nw *Network) FailLink(a, b int) {
	if !nw.valid(a) || !nw.valid(b) || a == b {
		return
	}
	if !nw.linkDown[a*nw.n+b].Swap(true) {
		nw.linksDown.Add(1)
	}
	nw.linkDown[b*nw.n+a].Store(true)
}

// FailEgress permanently fails rank src's egress toward firstHop mid-run:
// every subsequent message originated by src whose route's first hop is
// firstHop is dropped. Origin-scoped; safe to call from src's goroutine at
// any time.
func (nw *Network) FailEgress(src, firstHop int) {
	if !nw.valid(src) || !nw.valid(firstHop) || src == firstHop {
		return
	}
	if !nw.egressDown[src*nw.n+firstHop].Swap(true) {
		nw.linksDown.Add(1)
	}
}

// DropEgress arms a transient fault: the next count messages originated by
// src whose route's first hop is firstHop are dropped. Origin-scoped.
func (nw *Network) DropEgress(src, firstHop, count int) {
	if !nw.valid(src) || !nw.valid(firstHop) || src == firstHop || count <= 0 {
		return
	}
	nw.egressDrop[src*nw.n+firstHop].Add(int32(count))
}

// LinksDown reports how many links have been failed (permanent at-start
// links plus mid-run egress failures).
func (nw *Network) LinksDown() int { return int(nw.linksDown.Load()) }

// deliver routes one message from src to dst, applying fault state. It
// returns false when the message is dropped. Called from the sending rank's
// goroutine.
func (nw *Network) deliver(src, dst int) bool {
	if src == dst {
		return true
	}
	if !nw.valid(src) || !nw.valid(dst) {
		return false
	}
	first := nw.topo.NextHop(src, dst)
	if !nw.valid(first) || first == src {
		return false
	}
	// Origin-scoped egress faults apply at the first hop only.
	ei := src*nw.n + first
	if nw.egressDown[ei].Load() {
		return false
	}
	if nw.egressDrop[ei].Load() > 0 && nw.egressDrop[ei].Add(-1) >= 0 {
		return false
	}
	// Walk the full route against constant at-start link state.
	u := src
	for steps := 0; u != dst; steps++ {
		if steps >= nw.n {
			return false
		}
		v := nw.topo.NextHop(u, dst)
		if !nw.valid(v) || v == u || nw.linkDown[u*nw.n+v].Load() {
			return false
		}
		u = v
	}
	return true
}
