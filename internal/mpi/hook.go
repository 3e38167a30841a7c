package mpi

import (
	"fmt"
	"runtime"
	"strings"
)

// CollType enumerates the collective operations the runtime implements.
type CollType int32

const (
	CollBarrier CollType = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollScatter
	CollGather
	CollAllgather
	CollAlltoall
	CollAlltoallv
	CollReduceScatter
	CollScan
	CollScatterv
	CollGatherv
	NumCollTypes
)

var collNames = [NumCollTypes]string{
	"MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Scatter",
	"MPI_Gather", "MPI_Allgather", "MPI_Alltoall", "MPI_Alltoallv",
	"MPI_Reduce_scatter", "MPI_Scan", "MPI_Scatterv", "MPI_Gatherv",
}

func (t CollType) String() string {
	if t >= 0 && t < NumCollTypes {
		return collNames[t]
	}
	return fmt.Sprintf("MPI_Collective(%d)", int32(t))
}

// Rooted reports whether the collective has a root process with a
// communication pattern distinct from the other ranks (the semantic
// distinction FastFIT's semantic-driven pruning exploits).
func (t CollType) Rooted() bool {
	switch t {
	case CollBcast, CollReduce, CollScatter, CollGather, CollScatterv, CollGatherv:
		return true
	}
	return false
}

// Args carries the mutable input parameters of one collective call on one
// rank. A fault injector flips bits in these fields before the collective
// algorithm consumes them.
type Args struct {
	Send *Buffer
	Recv *Buffer

	Count int32
	Dtype Datatype
	Op    Op
	Root  int32
	Comm  Comm

	// v-variant parameter vectors (element counts / displacements per rank).
	SendCounts []int32
	SendDispls []int32
	RecvCounts []int32
	RecvDispls []int32
}

// CollectiveCall describes one invocation of a collective on one rank, with
// the application context FastFIT profiles: call site, invocation index,
// call stack, phase and error-handling annotation.
type CollectiveCall struct {
	Rank        int
	Type        CollType
	Site        uintptr   // PC identifying the application call site
	Invocation  int       // 0-based count of this site's invocations on this rank
	Stack       []uintptr // application-side call stack (innermost first)
	StackHash   uint64
	Phase       Phase
	ErrHandling bool
	Args        *Args
}

// SiteName renders the call site as "func file:line".
func (c *CollectiveCall) SiteName() string { return describePC(c.Site) }

func describePC(pc uintptr) string {
	f := runtime.FuncForPC(pc)
	if f == nil {
		return fmt.Sprintf("pc:%#x", pc)
	}
	file, line := f.FileLine(pc)
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	name := f.Name()
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s %s:%d", name, file, line)
}

// Hook observes (and in the injector's case mutates) collective calls.
// BeforeCollective runs after argument capture but before validation and
// execution; AfterCollective runs once the collective completes normally.
// A run forked from a snapshot (RunOptions.Fork) calls both only for the
// forked rank's live collectives up to and including the faulted one; a
// hook there must not count on seeing any other call.
//
// The *CollectiveCall (including its Args and Stack) is only valid for the
// duration of the callback: with buffer pooling active (the default) the
// runtime reuses one record per rank across calls. A hook that needs the
// data later must copy the fields it cares about.
type Hook interface {
	BeforeCollective(call *CollectiveCall)
	AfterCollective(call *CollectiveCall)
}

// NopHook is a Hook with empty methods, convenient for embedding.
type NopHook struct{}

// BeforeCollective implements Hook.
func (NopHook) BeforeCollective(*CollectiveCall) {}

// AfterCollective implements Hook.
func (NopHook) AfterCollective(*CollectiveCall) {}

const pkgPrefix = "github.com/fastfit/fastfit/internal/mpi."

// collectiveWorkCharge is the work-budget cost of entering one collective.
// Charging collectives (not just application compute) lets the budget kill
// runaway loops whose cost is dominated by communication — e.g. a corrupted
// iteration count around a tight Allreduce loop.
const collectiveWorkCharge = 2000

// callSite resolves a raw call stack, captured with runtime.Callers from a
// public entry point (a collective, a user send or receive) outward, into
// the call's application context: the trimmed stack (memoised by
// lookupStack), its innermost application PC, and that site's invocation
// index on this rank, which it advances. Callers capture the stack
// themselves, directly in the entry point's first runtime frame: every
// frame in between would be one more for runtime.Callers to walk on every
// call.
func (r *Rank) callSite(pcs []uintptr) (st stackEntry, site uintptr, inv int) {
	st = r.lookupStack(pcs)
	if len(st.stack) > 0 {
		site = st.stack[0]
	}
	inv = r.invents[site]
	r.invents[site] = inv + 1
	return st, site, inv
}

// endCollective is every live collective's epilogue: the recorder and the
// hook see the call if enter let them, and a forked run may end here.
func (r *Rank) endCollective(c *collCall) {
	if c.call != nil {
		if r.world.rec != nil {
			r.world.rec.recordCollective(r, c.call)
		}
		if r.world.hook != nil {
			r.world.hook.AfterCollective(c.call)
		}
	}
	if r.cutSeq >= 0 {
		r.reconverge(c)
	}
}

// trimToApp drops the runtime frames belonging to this package, leaving the
// application-side stack. The first entry is the precise call-site PC (it
// identifies the static MPI call site); caller frames above it are
// normalised to function-entry PCs, because the paper defines call-stack
// equivalence at function granularity: "the same call stack means that the
// active functions are the same and called in the same order", regardless
// of the exact line within each caller.
func trimToApp(pcs []uintptr) []uintptr {
	out := make([]uintptr, 0, len(pcs))
	frames := runtime.CallersFrames(pcs)
	for {
		fr, more := frames.Next()
		if fr.PC != 0 && !strings.HasPrefix(fr.Function, pkgPrefix) && fr.Function != "runtime.Callers" {
			pc := fr.PC
			if len(out) > 0 && fr.Entry != 0 {
				pc = fr.Entry
			}
			out = append(out, pc)
		}
		if !more {
			break
		}
	}
	return out
}

// FNV-1a, computed inline so the per-call hash allocates nothing. The
// values are identical to hash/fnv over the little-endian PC bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashStack(pcs []uintptr) uint64 {
	h := uint64(fnvOffset64)
	for _, pc := range pcs {
		v := uint64(pc)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime64
		}
	}
	return h
}

// hashPCs keys the per-rank stack cache by the raw (untrimmed) PC array.
func hashPCs(pcs []uintptr) uint64 { return hashStack(pcs) }
