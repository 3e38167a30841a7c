package mpi

// Network topologies. The paper injects faults only into collective
// parameters and buffers on a flat, perfectly reliable interconnect; the
// topology layer makes the interconnect itself a first-class, faultable
// object. A Topology describes which directed links exist and how a message
// from rank a to rank b is routed across them; the Network (network.go)
// overlays link/egress fault state on top of it.
//
// Routing is deliberately deterministic: NextHop is a pure function of
// (from, to), so the set of links a message crosses — and therefore whether
// a given link failure drops it — depends only on the message's endpoints,
// never on scheduling. That property is what lets link-fault campaigns
// classify deterministically.

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology describes a simulated interconnect over n ranks (one rank per
// node; the terms are interchangeable here).
type Topology interface {
	// Name identifies the topology (e.g. "ring", "torus:4x8").
	Name() string
	// Nodes returns the number of ranks the topology spans.
	Nodes() int
	// Neighbors returns the ranks directly linked to rank, in a fixed
	// deterministic order. The returned slice is freshly allocated.
	Neighbors(rank int) []int
	// NextHop returns the neighbor a message at `from` is forwarded to on
	// its way to `to`. from != to; the result is always a direct neighbor
	// of from, and repeated application reaches `to` in at most Nodes()
	// steps. Pure function of its arguments.
	NextHop(from, to int) int
}

// flatTopo is the paper's implicit network: every pair of ranks is directly
// connected (a full crossbar), so every message is a single hop.
type flatTopo struct{ n int }

func (t flatTopo) Name() string { return "flat" }
func (t flatTopo) Nodes() int   { return t.n }
func (t flatTopo) Neighbors(rank int) []int {
	out := make([]int, 0, t.n-1)
	for i := 0; i < t.n; i++ {
		if i != rank {
			out = append(out, i)
		}
	}
	return out
}
func (t flatTopo) NextHop(from, to int) int { return to }

// ringTopo is a bidirectional ring; messages take the shorter direction,
// breaking ties clockwise (toward (rank+1) % n).
type ringTopo struct{ n int }

func (t ringTopo) Name() string { return "ring" }
func (t ringTopo) Nodes() int   { return t.n }
func (t ringTopo) Neighbors(rank int) []int {
	if t.n == 1 {
		return nil
	}
	if t.n == 2 {
		return []int{(rank + 1) % 2}
	}
	return []int{(rank + t.n - 1) % t.n, (rank + 1) % t.n}
}
func (t ringTopo) NextHop(from, to int) int {
	fwd := (to - from + t.n) % t.n // clockwise distance
	if fwd <= t.n-fwd {
		return (from + 1) % t.n
	}
	return (from + t.n - 1) % t.n
}

// torusTopo is a 2-D torus of X columns by Y rows with dimension-order
// routing: a message first corrects its X coordinate (shorter wrap
// direction, ties positive), then its Y coordinate. Rank r sits at
// (r % X, r / X).
type torusTopo struct{ x, y int }

func (t torusTopo) Name() string { return fmt.Sprintf("torus:%dx%d", t.x, t.y) }
func (t torusTopo) Nodes() int   { return t.x * t.y }

// step returns the shorter-wrap unit step from a to b modulo m (ties
// positive); 0 when a == b.
func torusStep(a, b, m int) int {
	if a == b {
		return 0
	}
	fwd := (b - a + m) % m
	if fwd <= m-fwd {
		return 1
	}
	return -1
}

func (t torusTopo) Neighbors(rank int) []int {
	cx, cy := rank%t.x, rank/t.x
	var out []int
	add := func(nx, ny int) {
		r := ny*t.x + nx
		for _, e := range out {
			if e == r {
				return
			}
		}
		if r != rank {
			out = append(out, r)
		}
	}
	add((cx+t.x-1)%t.x, cy)
	add((cx+1)%t.x, cy)
	add(cx, (cy+t.y-1)%t.y)
	add(cx, (cy+1)%t.y)
	return out
}

func (t torusTopo) NextHop(from, to int) int {
	fx, fy := from%t.x, from/t.x
	tx, ty := to%t.x, to/t.x
	if dx := torusStep(fx, tx, t.x); dx != 0 {
		return fy*t.x + (fx+dx+t.x)%t.x
	}
	dy := torusStep(fy, ty, t.y)
	return ((fy+dy+t.y)%t.y)*t.x + fx
}

// ParseTopology builds a topology over n ranks from a spec string:
//
//	""            -> flat (the paper's implicit network)
//	"flat"        -> flat
//	"ring"        -> bidirectional ring
//	"torus"       -> 2-D torus, near-square automatic factorisation of n
//	"torus:XxY"   -> 2-D torus with explicit dimensions (X*Y must equal n)
//
// It never panics; malformed specs and impossible dimensions return errors
// so campaign configuration failures surface before any trial runs.
func ParseTopology(spec string, n int) (Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: world size %d must be positive", n)
	}
	s := strings.TrimSpace(strings.ToLower(spec))
	switch {
	case s == "" || s == "flat":
		return flatTopo{n: n}, nil
	case s == "ring":
		return ringTopo{n: n}, nil
	case s == "torus":
		x := nearSquareFactor(n)
		if x == 0 {
			return nil, fmt.Errorf("topology: cannot factor %d ranks into a 2-D torus", n)
		}
		return torusTopo{x: x, y: n / x}, nil
	case strings.HasPrefix(s, "torus:"):
		dims := strings.Split(strings.TrimPrefix(s, "torus:"), "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("topology: torus spec %q must be torus:XxY", spec)
		}
		x, err1 := strconv.Atoi(strings.TrimSpace(dims[0]))
		y, err2 := strconv.Atoi(strings.TrimSpace(dims[1]))
		if err1 != nil || err2 != nil || x <= 0 || y <= 0 {
			return nil, fmt.Errorf("topology: torus spec %q has invalid dimensions", spec)
		}
		if x*y != n {
			return nil, fmt.Errorf("topology: torus %dx%d covers %d ranks, world has %d", x, y, x*y, n)
		}
		return torusTopo{x: x, y: y}, nil
	default:
		return nil, fmt.Errorf("topology: unknown spec %q (want flat, ring, torus or torus:XxY)", spec)
	}
}

// nearSquareFactor returns the largest divisor of n that is <= sqrt(n), or
// 0 when n < 1. For any n >= 1 this is at least 1 (a 1xN torus degenerates
// to a ring, which is still a valid torus).
func nearSquareFactor(n int) int {
	best := 0
	for x := 1; x*x <= n; x++ {
		if n%x == 0 {
			best = x
		}
	}
	return best
}
