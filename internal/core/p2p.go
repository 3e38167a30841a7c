package core

import (
	"fmt"
	"sort"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Point-to-point injection: the beyond-collectives extension the paper's
// conclusion sketches. The same pipeline applies — profile, prune
// invocations by call stack, inject, classify — with the fault model of
// fault.P2PFault.

// P2PPoint is one point-to-point fault injection point with its features.
type P2PPoint struct {
	Rank       int
	Site       uintptr
	SiteName   string
	Kind       mpi.P2PKind
	Invocation int
	StackHash  uint64

	Phase       mpi.Phase
	ErrHandling bool
	NInv        int
	StackDepth  int
	NDiffStacks int
}

func (p *P2PPoint) String() string {
	return fmt.Sprintf("rank %d %s inv %d (%v, phase %v)", p.Rank, p.SiteName, p.Invocation, p.Kind, p.Phase)
}

// P2PPointResult aggregates one p2p point's injection tests.
type P2PPointResult struct {
	Point  P2PPoint
	Trials []P2PTrialResult
	Counts classify.Counts
}

// P2PTrialResult is one p2p injection test.
type P2PTrialResult struct {
	Target  fault.P2PTarget
	Bit     int
	Outcome classify.Outcome
}

// ErrorRate returns the fraction of non-SUCCESS trials.
func (pr *P2PPointResult) ErrorRate() float64 { return pr.Counts.ErrorRate() }

// P2PPoints enumerates the point-to-point fault-injection space from the
// profile, sorted deterministically.
func (e *Engine) P2PPoints() ([]P2PPoint, error) {
	prof, err := e.Profile()
	if err != nil {
		return nil, err
	}
	var out []P2PPoint
	for _, s := range prof.P2PSiteList() {
		for _, iv := range s.Invs {
			out = append(out, P2PPoint{
				Rank:        s.Rank,
				Site:        s.PC,
				SiteName:    s.Name,
				Kind:        s.Kind,
				Invocation:  iv.Index,
				StackHash:   iv.StackHash,
				Phase:       iv.Phase,
				ErrHandling: iv.ErrHandling,
				NInv:        s.Invocations(),
				StackDepth:  iv.StackDepth,
				NDiffStacks: s.DistinctStacks(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Invocation < b.Invocation
	})
	return out, nil
}

// ContextPruneP2P keeps one representative invocation per distinct call
// stack of each (rank, site) — context-driven pruning applied to the p2p
// space.
func ContextPruneP2P(points []P2PPoint) ([]P2PPoint, float64) {
	if len(points) == 0 {
		return nil, 0
	}
	type stackKey struct {
		rank  int
		site  uintptr
		stack uint64
	}
	seen := make(map[stackKey]bool)
	var kept []P2PPoint
	for _, p := range points {
		k := stackKey{rank: p.Rank, site: p.Site, stack: p.StackHash}
		if !seen[k] {
			seen[k] = true
			kept = append(kept, p)
		}
	}
	return kept, reduction(len(points), len(kept))
}

// InjectP2PPoint performs n random injection tests at a p2p point; like
// RunOnce, it panics when Profile fails.
func (e *Engine) InjectP2PPoint(p P2PPoint, pointIdx, n int) P2PPointResult {
	g, err := e.loadGolden()
	if err != nil {
		panic(err)
	}
	pr := P2PPointResult{Point: p, Trials: make([]P2PTrialResult, 0, n)}
	for t := 0; t < n; t++ {
		rng := newRand(e.trialSeed(pointIdx+1<<20, t))
		f := fault.RandomP2PFault(rng, p.Rank, p.Site, p.Invocation, p.Kind)
		inj := fault.NewP2PInjector(nil, f)
		res := e.exec(mpi.RunOptions{Hook: inj})
		outcome := e.classifyRun(g, res)
		pr.Trials = append(pr.Trials, P2PTrialResult{Target: f.Target, Bit: f.Bit, Outcome: outcome})
		pr.Counts.Add(outcome)
	}
	return pr
}
