package fault

// Network fault plans. A NetFault is an *at-start* fault in the network
// fault domain: a permanently failed link, an armed burst of message drops,
// or a node that is dead before launch. At-start faults are constant for
// the whole run, which is what licenses their globally visible semantics
// (any rank may consult them; see mpi/network.go's determinism contract).
//
// Mid-run network faults do not get their own type: they are ordinary
// Fault values with a net target (TargetNetLink/NetDrop/NetNode), addressed
// to a (rank, site, invocation) triple like every parameter flip, and
// applied by the Injector to the run's Network when the triple comes up.
// Riding the existing Fault struct keeps trial results, journals and
// campaign JSON shape-compatible across the fault domains.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"github.com/fastfit/fastfit/internal/mpi"
)

// NetFaultKind names the three at-start network fault flavours.
type NetFaultKind int

const (
	LinkFail  NetFaultKind = iota // permanent bidirectional link failure
	LinkDrop                      // transient: drop the next Count egress messages
	NodeCrash                     // the node is dead before launch
	numNetFaultKinds
)

var netFaultKindNames = [numNetFaultKinds]string{"link", "drop", "crash"}

func (k NetFaultKind) String() string {
	if k >= 0 && k < numNetFaultKinds {
		return netFaultKindNames[k]
	}
	return fmt.Sprintf("netfault(%d)", int(k))
}

// NetFault is one at-start entry of a network fault plan.
type NetFault struct {
	Kind  NetFaultKind `json:"kind"`
	Rank  int          `json:"rank"`            // link endpoint A / crashing rank
	Peer  int          `json:"peer,omitempty"`  // link endpoint B (unused for NodeCrash)
	Count int          `json:"count,omitempty"` // LinkDrop burst length (default 1)
}

func (f NetFault) String() string {
	switch f.Kind {
	case LinkFail:
		return fmt.Sprintf("link:%d-%d", f.Rank, f.Peer)
	case LinkDrop:
		return fmt.Sprintf("drop:%d-%d:%d", f.Rank, f.Peer, f.dropCount())
	case NodeCrash:
		return fmt.Sprintf("crash:%d", f.Rank)
	}
	return fmt.Sprintf("netfault(%d):%d-%d", int(f.Kind), f.Rank, f.Peer)
}

func (f NetFault) dropCount() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// Validate checks the plan entry against a world of n ranks. It never
// panics: campaign configuration errors must surface as errors before any
// trial runs.
func (f NetFault) Validate(n int) error {
	if f.Kind < 0 || f.Kind >= numNetFaultKinds {
		return fmt.Errorf("net fault %s: unknown kind %d", f, int(f.Kind))
	}
	if f.Rank < 0 || f.Rank >= n {
		return fmt.Errorf("net fault %s: rank %d outside world of %d", f, f.Rank, n)
	}
	if f.Kind == NodeCrash {
		return nil
	}
	if f.Peer < 0 || f.Peer >= n {
		return fmt.Errorf("net fault %s: peer %d outside world of %d", f, f.Peer, n)
	}
	if f.Peer == f.Rank {
		return fmt.Errorf("net fault %s: rank and peer are both %d", f, f.Rank)
	}
	if f.Kind == LinkDrop && f.Count < 0 {
		return fmt.Errorf("net fault %s: negative drop count %d", f, f.Count)
	}
	return nil
}

// ValidateNetPlan validates every entry of a plan against topo: its ranks
// must lie in the topology, and the pair of a link or drop entry must be
// one of its links, which is the only place such an entry acts.
func ValidateNetPlan(plan []NetFault, topo mpi.Topology) error {
	for i, f := range plan {
		err := f.Validate(topo.Nodes())
		if err == nil && f.Kind != NodeCrash && !slices.Contains(topo.Neighbors(f.Rank), f.Peer) {
			err = fmt.Errorf("net fault %s: %d-%d is not a link of %s", f, f.Rank, f.Peer, topo.Name())
		}
		if err != nil {
			return fmt.Errorf("net plan entry %d: %w", i, err)
		}
	}
	return nil
}

// NetPlanString renders a plan in the CLI spec syntax (round-trips through
// ParseNetPlan); campaign fingerprints embed it.
func NetPlanString(plan []NetFault) string {
	parts := make([]string, len(plan))
	for i, f := range plan {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseNetPlan parses the CLI network fault plan syntax: a comma-separated
// list of
//
//	link:A-B      permanently fail the link between ranks A and B
//	drop:A-B:N    drop the next N messages rank A sends toward B (N default 1)
//	crash:R       rank R's node is dead before launch
//
// e.g. "link:1-2,drop:0-1:2,crash:5". A link or drop pair must be a link
// of the topology (ValidateNetPlan). It never panics; malformed specs
// return errors.
func ParseNetPlan(spec string) ([]NetFault, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, nil
	}
	var plan []NetFault
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		var f NetFault
		switch strings.ToLower(fields[0]) {
		case "link", "drop":
			if len(fields) < 2 {
				return nil, fmt.Errorf("net plan %q: missing endpoints", part)
			}
			ends := strings.Split(fields[1], "-")
			if len(ends) != 2 {
				return nil, fmt.Errorf("net plan %q: endpoints must be A-B", part)
			}
			a, err1 := strconv.Atoi(strings.TrimSpace(ends[0]))
			b, err2 := strconv.Atoi(strings.TrimSpace(ends[1]))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("net plan %q: invalid endpoints", part)
			}
			f = NetFault{Kind: LinkFail, Rank: a, Peer: b}
			if strings.ToLower(fields[0]) == "drop" {
				f.Kind = LinkDrop
				f.Count = 1
				if len(fields) >= 3 {
					c, err := strconv.Atoi(strings.TrimSpace(fields[2]))
					if err != nil || c <= 0 {
						return nil, fmt.Errorf("net plan %q: invalid drop count", part)
					}
					f.Count = c
				}
			} else if len(fields) > 2 {
				return nil, fmt.Errorf("net plan %q: unexpected trailing fields", part)
			}
		case "crash":
			if len(fields) != 2 {
				return nil, fmt.Errorf("net plan %q: want crash:R", part)
			}
			r, err := strconv.Atoi(strings.TrimSpace(fields[1]))
			if err != nil {
				return nil, fmt.Errorf("net plan %q: invalid rank", part)
			}
			f = NetFault{Kind: NodeCrash, Rank: r}
		default:
			return nil, fmt.Errorf("net plan %q: unknown kind %q (want link, drop or crash)", part, fields[0])
		}
		plan = append(plan, f)
	}
	return plan, nil
}

// ApplyNetPlan applies a validated plan's at-start faults to net and
// returns the ranks that must be dead before launch
// (mpi.RunOptions.CrashedRanks). Out-of-range entries are skipped (the
// engine validates plans up front; skipping keeps this path panic-free).
func ApplyNetPlan(net *mpi.Network, plan []NetFault) (crashed []int) {
	for _, f := range plan {
		switch f.Kind {
		case LinkFail:
			net.FailLink(f.Rank, f.Peer)
		case LinkDrop:
			net.DropEgress(f.Rank, f.Peer, f.dropCount())
		case NodeCrash:
			crashed = append(crashed, f.Rank)
		}
	}
	return crashed
}

// ---- mid-run (site-addressed) network faults ----

// netDropCount decodes a TargetNetDrop burst length (1..8) from Bit, where
// n is the divisor already consumed by the link selection.
func netDropCount(bit, n int) int {
	if n <= 0 {
		n = 1
	}
	return 1 + (bit/n)%8
}

// RandomNetFault draws a uniformly random mid-run network fault for an
// injection point: with equal probability a permanent egress link failure,
// a transient drop burst, or a node crash at the addressed collective. The
// peer/burst parameters are packed into Bit (decoded at apply time), so the
// fault serialises exactly like a parameter flip.
func RandomNetFault(rng *rand.Rand, rank int, site uintptr, invocation int, nRanks int) Fault {
	targets := [...]Target{TargetNetLink, TargetNetDrop, TargetNetNode}
	target := targets[rng.Intn(len(targets))]
	bit := rng.Intn(BitSpace)
	return Fault{Rank: rank, Site: site, Invocation: invocation, Target: target, Bit: bit}
}
