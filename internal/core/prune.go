package core

import (
	"math/rand"

	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

// newRand is rand.New(rand.NewSource(seed)), seeded in O(draws): a trial
// draws its fault from a fresh one and reads a handful of values.
func newRand(seed int64) *rand.Rand { return mpi.NewRand(seed) }

// SemanticPrune implements Semantic Driven Fault Injection (paper §III-A):
// for rooted collectives only the root and one representative non-root
// rank need injection; for non-rooted collectives a single representative
// rank suffices — refined by treating only ranks with identical call
// graphs and communication traces as equivalent.
//
// It returns the surviving points and the reduction ratio relative to the
// input.
func SemanticPrune(prof *profile.Profile, points []Point) ([]Point, float64) {
	if len(points) == 0 {
		return nil, 0
	}
	// Equivalence class of a rank: its (call graph, trace) pair.
	type equivKey struct{ cg, tr uint64 }
	classOf := func(rank int) equivKey {
		return equivKey{prof.CallGraphHash[rank], prof.TraceHash[rank]}
	}

	// For each static call site (PC) and role, keep the lowest rank of
	// each equivalence class.
	type groupKey struct {
		site   uintptr
		isRoot bool
		class  equivKey
	}
	keepRank := make(map[groupKey]int)
	for _, p := range points {
		k := groupKey{site: p.Site, isRoot: p.IsRoot, class: classOf(p.Rank)}
		if r, ok := keepRank[k]; !ok || p.Rank < r {
			keepRank[k] = p.Rank
		}
	}
	var kept []Point
	for _, p := range points {
		k := groupKey{site: p.Site, isRoot: p.IsRoot, class: classOf(p.Rank)}
		if keepRank[k] == p.Rank {
			kept = append(kept, p)
		}
	}
	return kept, reduction(len(points), len(kept))
}

// contextKey is what context-driven pruning groups a point by: its rank,
// call site and call stack.
type contextKey struct {
	rank  int
	site  uintptr
	stack uint64
}

func (p Point) contextKey() contextKey    { return contextKey{p.Rank, p.Site, p.StackHash} }
func (p P2PPoint) contextKey() contextKey { return contextKey{p.Rank, p.Site, p.StackHash} }

// ContextPrune implements Application Context Driven Fault Injection
// (paper §III-B): invocations of a call site that share a call stack
// respond alike, so one representative invocation per distinct stack
// suffices. It prunes collective and point-to-point points alike, and
// returns the surviving points and the reduction ratio relative to the
// input.
func ContextPrune[P interface{ contextKey() contextKey }](points []P) ([]P, float64) {
	if len(points) == 0 {
		return nil, 0
	}
	seen := make(map[contextKey]bool)
	var kept []P
	for _, p := range points { // points are sorted, so the first invocation wins
		if k := p.contextKey(); !seen[k] {
			seen[k] = true
			kept = append(kept, p)
		}
	}
	return kept, reduction(len(points), len(kept))
}

func reduction(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return 1 - float64(after)/float64(before)
}
