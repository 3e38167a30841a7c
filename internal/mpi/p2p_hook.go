package mpi

import (
	"fmt"
	"runtime"
)

// The paper's conclusion notes that FastFIT's techniques "can be applied
// to other programming elements of an HPC application" beyond collectives
// and leaves that as future work. This file implements that extension for
// point-to-point operations: user-level Send/Recv calls are observable
// (and corruptible) through the optional P2PHook interface, with the same
// call-site/invocation/stack context collectives get.

// P2PKind distinguishes send and receive operations.
type P2PKind int32

const (
	P2PSend P2PKind = iota
	P2PRecv
)

func (k P2PKind) String() string {
	if k == P2PSend {
		return "MPI_Send"
	}
	return "MPI_Recv"
}

// P2PArgs carries the mutable inputs of one point-to-point call.
type P2PArgs struct {
	Peer int    // destination (send) or source (recv; AnySource allowed)
	Tag  int    // message tag (recv may use AnyTag)
	Data []byte // payload (send only); flips corrupt the transmitted bytes
	Comm Comm
}

// P2PCall describes one user-level Send or Recv invocation.
type P2PCall struct {
	Rank        int
	Kind        P2PKind
	Site        uintptr
	Invocation  int
	Stack       []uintptr
	StackHash   uint64
	Phase       Phase
	ErrHandling bool
	Args        *P2PArgs
}

// SiteName renders the call site as "func file:line".
func (c *P2PCall) SiteName() string { return describePC(c.Site) }

func (c *P2PCall) String() string {
	return fmt.Sprintf("rank %d %v peer %d tag %d (%s)", c.Rank, c.Kind, c.Args.Peer, c.Args.Tag, c.SiteName())
}

// P2PHook extends Hook for observers that also want point-to-point events.
// The runtime type-asserts the world hook; plain Hooks are unaffected.
type P2PHook interface {
	Hook
	BeforeP2P(call *P2PCall)
}

// beginP2P captures the application context for a user point-to-point call
// and runs the world hook if it implements P2PHook. It returns the
// (possibly mutated) arguments. Like CollectiveCall, the records handed to
// the hook are only valid during the callback when pooling is active.
func (r *Rank) beginP2P(kind P2PKind, a P2PArgs) *P2PArgs {
	args := r.newP2PArgs(a)
	hook, ok := r.world.hook.(P2PHook)
	if !ok {
		return args
	}
	st, site, inv := r.callSite(r.pcbuf[:runtime.Callers(2, r.pcbuf[:])])
	call := r.newP2PCall()
	*call = P2PCall{
		Rank:        r.id,
		Kind:        kind,
		Site:        site,
		Invocation:  inv,
		Stack:       st.stack,
		StackHash:   st.hash,
		Phase:       r.phase,
		ErrHandling: r.errHandling,
		Args:        args,
	}
	hook.BeforeP2P(call)
	return call.Args
}
