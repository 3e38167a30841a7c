// Package profile implements FastFIT's profiling phase (paper §IV-B):
// during a fault-free run it collects the three profiles the tool needs —
//
//   - the communication profile (call sites, collective types, invocation
//     counts: the mpiP role),
//   - the call-graph profile (the control paths taken, in the Callgrind /
//     gprof role), and
//   - the call-stack profile (the stack at every collective invocation, in
//     the backtrace() role)
//
// — and derives from them the rank-equivalence and invocation-equivalence
// relations that semantic-driven and context-driven pruning exploit.
package profile

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Invocation records one collective invocation at one site on one rank.
type Invocation struct {
	Index       int // invocation number at this (rank, site)
	StackHash   uint64
	StackDepth  int
	Phase       mpi.Phase
	ErrHandling bool
	IsRoot      bool // for rooted collectives: this rank was the root
	Bytes       int  // payload bytes described by the arguments
	// Widths is the size of the call's variable-width parameters as the
	// hook saw them (zero for point-to-point sites). An injected run reaches
	// this invocation with the same arguments, so these are the widths a
	// fault addressed here wraps to. In-memory only: nothing persists them.
	Widths fault.Widths
}

// Site aggregates all invocations of one call site on one rank.
type Site struct {
	Rank     int
	PC       uintptr
	Name     string
	Type     mpi.CollType
	Invs     []Invocation
	numStack map[uint64]int
}

// Invocations returns how many times the site ran.
func (s *Site) Invocations() int { return len(s.Invs) }

// DistinctStacks returns the number of distinct call stacks observed.
func (s *Site) DistinctStacks() int { return len(s.numStack) }

// SiteKey identifies a call site on a rank.
type SiteKey struct {
	Rank int
	PC   uintptr
}

// P2PSite aggregates the invocations of one point-to-point call site on
// one rank (the future-work extension beyond collectives).
type P2PSite struct {
	Rank     int
	PC       uintptr
	Name     string
	Kind     mpi.P2PKind
	Invs     []Invocation
	numStack map[uint64]int
}

// Invocations returns how many times the p2p site ran.
func (s *P2PSite) Invocations() int { return len(s.Invs) }

// DistinctStacks returns the number of distinct call stacks observed.
func (s *P2PSite) DistinctStacks() int { return len(s.numStack) }

// Profile is the complete result of a profiling run.
type Profile struct {
	Ranks int
	Sites map[SiteKey]*Site

	// P2PSites holds the point-to-point call sites (Send/Recv), collected
	// for the beyond-collectives extension.
	P2PSites map[SiteKey]*P2PSite

	// Per-rank summaries for rank-equivalence analysis.
	CallGraphHash []uint64 // hash of the control-path edge set
	TraceHash     []uint64 // hash of the communication event sequence
}

// SiteList returns all sites sorted by (rank, pc) for deterministic
// iteration.
func (p *Profile) SiteList() []*Site {
	out := make([]*Site, 0, len(p.Sites))
	for _, s := range p.Sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// TotalPoints returns the total number of fault injection points: every
// invocation of every collective call site on every rank.
func (p *Profile) TotalPoints() int {
	n := 0
	for _, s := range p.Sites {
		n += len(s.Invs)
	}
	return n
}

// Widths returns the parameter widths the golden run recorded at one
// collective invocation, or false when the profile has no such invocation.
func (p *Profile) Widths(rank int, pc uintptr, invocation int) (fault.Widths, bool) {
	s := p.Sites[SiteKey{Rank: rank, PC: pc}]
	// A rank's invocations of a site are appended in call order, so the
	// invocation number is the slice index.
	if s == nil || invocation < 0 || invocation >= len(s.Invs) || s.Invs[invocation].Index != invocation {
		return fault.Widths{}, false
	}
	return s.Invs[invocation].Widths, true
}

// SitesOnRank returns rank's sites sorted by pc (the CALL_ID ordering).
func (p *Profile) SitesOnRank(rank int) []*Site {
	var out []*Site
	for _, s := range p.Sites {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// Collector is an mpi.Hook (and mpi.P2PHook) that builds a Profile during
// a fault-free run.
type Collector struct {
	mpi.NopHook
	mu       sync.Mutex
	ranks    int
	sites    map[SiteKey]*Site
	p2pSites map[SiteKey]*P2PSite
	edges    []map[edge]struct{} // per-rank call-graph edge sets
	trace    []*fnvState         // per-rank streaming trace hash
}

type edge struct{ from, to uintptr }

type fnvState struct{ h uint64 }

func newFnvState() *fnvState { return &fnvState{h: 1469598103934665603} }

func (f *fnvState) mix(vals ...uint64) {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			f.h ^= (v >> (8 * i)) & 0xff
			f.h *= 1099511628211
		}
	}
}

// NewCollector builds a collector for a world of the given size.
func NewCollector(ranks int) *Collector {
	c := &Collector{
		ranks:    ranks,
		sites:    make(map[SiteKey]*Site),
		p2pSites: make(map[SiteKey]*P2PSite),
		edges:    make([]map[edge]struct{}, ranks),
		trace:    make([]*fnvState, ranks),
	}
	for i := 0; i < ranks; i++ {
		c.edges[i] = make(map[edge]struct{})
		c.trace[i] = newFnvState()
	}
	return c
}

var _ mpi.Hook = (*Collector)(nil)

// BeforeCollective implements mpi.Hook.
func (c *Collector) BeforeCollective(call *mpi.CollectiveCall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := SiteKey{Rank: call.Rank, PC: call.Site}
	s := c.sites[key]
	if s == nil {
		s = &Site{
			Rank:     call.Rank,
			PC:       call.Site,
			Name:     call.SiteName(),
			Type:     call.Type,
			numStack: make(map[uint64]int),
		}
		c.sites[key] = s
	}
	isRoot := call.Type.Rooted() && call.Rank == int(call.Args.Root)
	bytes := payloadBytes(call)
	s.Invs = append(s.Invs, Invocation{
		Index:       call.Invocation,
		StackHash:   call.StackHash,
		StackDepth:  len(call.Stack),
		Phase:       call.Phase,
		ErrHandling: call.ErrHandling,
		IsRoot:      isRoot,
		Bytes:       bytes,
		Widths:      fault.WidthsOf(call.Args),
	})
	s.numStack[call.StackHash]++

	if call.Rank < len(c.edges) {
		for i := 0; i+1 < len(call.Stack); i++ {
			c.edges[call.Rank][edge{from: call.Stack[i+1], to: call.Stack[i]}] = struct{}{}
		}
		// The trace hash captures the communication *pattern* (which
		// collective, from which site and stack, in which role), not the
		// payload sizes: ranks whose counts differ only through data
		// decomposition are still pattern-equivalent, which is exactly the
		// equivalence semantic pruning needs.
		rootFlag := uint64(0)
		if isRoot {
			rootFlag = 1
		}
		c.trace[call.Rank].mix(uint64(call.Type), uint64(call.Site), call.StackHash, rootFlag)
	}
}

// BeforeP2P implements mpi.P2PHook: point-to-point call sites are profiled
// with the same context as collectives.
func (c *Collector) BeforeP2P(call *mpi.P2PCall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := SiteKey{Rank: call.Rank, PC: call.Site}
	s := c.p2pSites[key]
	if s == nil {
		s = &P2PSite{
			Rank:     call.Rank,
			PC:       call.Site,
			Name:     call.SiteName(),
			Kind:     call.Kind,
			numStack: make(map[uint64]int),
		}
		c.p2pSites[key] = s
	}
	s.Invs = append(s.Invs, Invocation{
		Index:       call.Invocation,
		StackHash:   call.StackHash,
		StackDepth:  len(call.Stack),
		Phase:       call.Phase,
		ErrHandling: call.ErrHandling,
		Bytes:       len(call.Args.Data),
	})
	s.numStack[call.StackHash]++
}

// P2PSiteList returns the point-to-point sites sorted by (rank, pc).
func (p *Profile) P2PSiteList() []*P2PSite {
	out := make([]*P2PSite, 0, len(p.P2PSites))
	for _, s := range p.P2PSites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// TotalP2PPoints returns the number of point-to-point injection points.
func (p *Profile) TotalP2PPoints() int {
	n := 0
	for _, s := range p.P2PSites {
		n += len(s.Invs)
	}
	return n
}

// payloadBytes estimates the bytes the call's arguments describe, for the
// communication profile.
func payloadBytes(call *mpi.CollectiveCall) int {
	a := call.Args
	esz := 0
	if a.Dtype.Valid() {
		esz = a.Dtype.Size()
	}
	if len(a.SendCounts) > 0 || len(a.RecvCounts) > 0 {
		n := 0
		for _, v := range a.SendCounts {
			n += int(v)
		}
		for _, v := range a.RecvCounts {
			n += int(v)
		}
		return n * esz
	}
	return int(a.Count) * esz
}

// Finish assembles the Profile after the run has completed.
func (c *Collector) Finish() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{
		Ranks:         c.ranks,
		Sites:         c.sites,
		P2PSites:      c.p2pSites,
		CallGraphHash: make([]uint64, c.ranks),
		TraceHash:     make([]uint64, c.ranks),
	}
	for rank := 0; rank < c.ranks; rank++ {
		p.CallGraphHash[rank] = hashEdgeSet(c.edges[rank])
		p.TraceHash[rank] = c.trace[rank].h
	}
	return p
}

func hashEdgeSet(set map[edge]struct{}) uint64 {
	keys := make([]edge, 0, len(set))
	for e := range set {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	h := fnv.New64a()
	var b [16]byte
	for _, e := range keys {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(e.from) >> (8 * i))
			b[8+i] = byte(uint64(e.to) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// String renders a short human-readable summary.
func (p *Profile) String() string {
	return fmt.Sprintf("profile: %d ranks, %d sites, %d injection points",
		p.Ranks, len(p.Sites), p.TotalPoints())
}
