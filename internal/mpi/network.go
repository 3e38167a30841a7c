package mpi

// Network overlays fault state and accounting on a Topology. It is the
// runtime half of the network fault domain: the injector flips link and
// egress bits here, and post consults deliver() before enqueueing a
// message at its destination.
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
//
// Stats are plain aggregate counters intended for overhead reporting on
// fault-free runs (where they are exactly reproducible); on faulty runs the
// message counts can vary with scheduling (e.g. sends racing a crashing
// destination) and must not feed classification.

import "sync/atomic"

// NetStats aggregates a run's simulated network traffic.
type NetStats struct {
	Messages  int64 // messages handed to the fabric
	Dropped   int64 // messages discarded by link/egress faults
	Hops      int64 // total link traversals of delivered messages
	LatencyNs int64 // total simulated link latency of delivered messages
}

// Network is the faultable interconnect for one run. Build one per run with
// NewNetwork and pass it via RunOptions.Network; at-start faults are applied
// before Run, mid-run faults by the injector during the run.
type Network struct {
	topo Topology
	n    int

	// linkDown marks permanently failed directed links [u*n+v]. Written
	// only before the run starts (FailLink); constant during the run, so
	// every rank may consult it (route traversal, PathBlocked).
	linkDown []atomic.Bool
	// egressDown marks mid-run egress failures [src*n+firstHop]: messages
	// originated by src whose route leaves via firstHop are dropped.
	// Origin-scoped (see the package comment).
	egressDown []atomic.Bool
	// egressDrop holds transient drop budgets [src*n+firstHop]: each send
	// decrements until exhausted. Origin-scoped.
	egressDrop []atomic.Int32

	linksDown atomic.Int64 // undirected down links (for progress display)

	msgs    atomic.Int64
	dropped atomic.Int64
	hops    atomic.Int64
	latency atomic.Int64
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

// PathBlocked reports whether the deterministic route from src to dst
// crosses a permanently failed at-start link. It consults only constant
// state, so every rank computes the same answer at any point in the run —
// topology-aware algorithms use it to agree on re-routing without
// communicating.
func (nw *Network) PathBlocked(src, dst int) bool {
	if !nw.valid(src) || !nw.valid(dst) || src == dst {
		return false
	}
	u := src
	for steps := 0; u != dst && steps < nw.n; steps++ {
		v := nw.topo.NextHop(u, dst)
		if !nw.valid(v) || v == u {
			return true // malformed route: treat as unreachable
		}
		if nw.linkDown[u*nw.n+v].Load() {
			return true
		}
		u = v
	}
	return u != dst
}

// deliver routes one message from src to dst, applying fault state and
// accounting. It returns false when the message is dropped. Called from the
// sending rank's goroutine.
func (nw *Network) deliver(src, dst int) bool {
	nw.msgs.Add(1)
	if src == dst {
		return true
	}
	if !nw.valid(src) || !nw.valid(dst) {
		nw.dropped.Add(1)
		return false
	}
	first := nw.topo.NextHop(src, dst)
	if !nw.valid(first) || first == src {
		nw.dropped.Add(1)
		return false
	}
	// Origin-scoped egress faults apply at the first hop only.
	ei := src*nw.n + first
	if nw.egressDown[ei].Load() {
		nw.dropped.Add(1)
		return false
	}
	if nw.egressDrop[ei].Load() > 0 && nw.egressDrop[ei].Add(-1) >= 0 {
		nw.dropped.Add(1)
		return false
	}
	// Walk the full route against constant at-start link state.
	u := src
	hops := int64(0)
	lat := int64(0)
	for steps := 0; u != dst; steps++ {
		if steps >= nw.n {
			nw.dropped.Add(1)
			return false
		}
		v := nw.topo.NextHop(u, dst)
		if !nw.valid(v) || v == u || nw.linkDown[u*nw.n+v].Load() {
			nw.dropped.Add(1)
			return false
		}
		hops++
		lat += nw.topo.LinkLatencyNs(u, v)
		u = v
	}
	nw.hops.Add(hops)
	nw.latency.Add(lat)
	return true
}

// Stats snapshots the traffic counters.
func (nw *Network) Stats() NetStats {
	return NetStats{
		Messages:  nw.msgs.Load(),
		Dropped:   nw.dropped.Load(),
		Hops:      nw.hops.Load(),
		LatencyNs: nw.latency.Load(),
	}
}

// ---- rank-side fault-domain API ----
//
// These are the primitives the resilient algorithm zoo builds on. They are
// all deterministic given the run's fault plan: AliveAtStart and
// PathBlocked consult only constant at-start state, and RecvOrFail detects
// mid-run deaths at the message-consumption point (a dying rank's sends
// reach their inboxes before its death mark, so "dead and nothing matching"
// is a stable, schedule-independent verdict).

// AliveAtStart reports whether world rank `rank` was alive when the run
// started. Constant for the whole run and identical on every rank, so
// algorithms can independently compute the same survivor set.
func (r *Rank) AliveAtStart(rank int) bool {
	w := r.world
	if !w.faulty || rank < 0 || rank >= w.size {
		return true
	}
	return !w.deadAtStart[rank]
}

// InitialLiveRanks returns the world ranks alive at run start, ascending.
// Every rank computes the identical slice.
func (r *Rank) InitialLiveRanks() []int {
	w := r.world
	out := make([]int, 0, w.size)
	for i := 0; i < w.size; i++ {
		if !w.faulty || !w.deadAtStart[i] {
			out = append(out, i)
		}
	}
	return out
}

// PathBlocked reports whether the route between world ranks a and b crosses
// a permanently failed at-start link. Nil-safe: without a network it is
// always false.
func (r *Rank) PathBlocked(a, b int) bool {
	w := r.world
	if !w.faulty || w.net == nil {
		return false
	}
	return w.net.PathBlocked(a, b)
}

// NetStats snapshots the run's network counters (zero without a network).
func (r *Rank) NetStats() NetStats {
	w := r.world
	if w.net == nil {
		return NetStats{}
	}
	return w.net.Stats()
}

// libTagBase is the bottom of the tag range [1<<19, 1<<20) reserved by
// convention for resilient-library point-to-point traffic. It sits inside
// the user tag space (so Send/Recv accept it) but far above tags
// applications use in practice.
const libTagBase = 1 << 19

// LibTag maps a (sequence, round) pair into the reserved library tag range.
// seq should come from LibSeq so back-to-back invocations of the same
// algorithm cannot steal each other's messages; round distinguishes message
// kinds within one invocation (round < 1024).
func LibTag(seq, round int) int {
	if round < 0 {
		round = 0
	}
	return libTagBase + (seq%(1<<9))*1024 + round%1024
}

// LibSeq returns a per-rank, per-key invocation counter (0, 1, 2, ... in
// program order), reset at the start of every run. Resilient collectives use
// it to derive fresh LibTag namespaces per invocation.
func (r *Rank) LibSeq(key string) int {
	if r.libSeq == nil {
		r.libSeq = make(map[string]int)
	}
	s := r.libSeq[key]
	r.libSeq[key] = s + 1
	return s
}

// RecvOrFail receives a message from src (rank within comm) with the given
// tag, or reports that src has died. It returns (payload, true) on receipt
// and (nil, false) when src is dead and no matching message is pending —
// the failure-detection primitive surviving collectives are built on. It is
// an ordinary receive with a death watch on src (recvMatch).
//
// Determinism: a dying rank's sends are enqueued, under World.mu, before its
// death mark is, and the mark wakes RecvOrFail, which looks at everything
// queued for it before it reads the mark; "message was sent" vs "rank died
// first" is therefore decided by src's program order alone. A message lost
// to a *link* fault with src still alive blocks forever, as a real receiver
// would, and the run ends as a deadlock once every rank waits (INF_LOOP).
func (r *Rank) RecvOrFail(comm Comm, src, tag int) ([]byte, bool) {
	if r.world.rec != nil {
		// Failure-detecting receives consume messages outside the recorded
		// Recv path; such apps use full replay.
		r.world.rec.poison("failure-detecting receive (RecvOrFail)")
	}
	ci, want := r.recvArgs("RecvOrFail", comm, src, tag, false)
	m, ok := r.recvMatch(want, ci.members[src])
	if !ok {
		return nil, false
	}
	return m.payload(), true
}
