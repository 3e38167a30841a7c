package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Point-to-point injection: the beyond-collectives extension the paper's
// conclusion sketches. The same pipeline applies — profile, prune
// invocations by call stack (ContextPrune), inject, classify — with the
// p2p targets of the one fault model (fault.TargetP2PData/Tag/Peer), and a
// point's trials run through the same loop as a collective point's.

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
	Trials []TrialResult
	Counts classify.Counts
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

// InjectP2PPoint performs n random injection tests at a p2p point; like
// RunOnce, it panics when Profile fails. Its trials are one wave, never
// forked (the tape is cut at collectives) and never keyed by effective
// fault, seeded apart from every collective point's.
func (e *Engine) InjectP2PPoint(p P2PPoint, pointIdx, n int) P2PPointResult {
	seq := trialSeq{seed: pointIdx + 1<<20, draw: func(rng *rand.Rand) fault.Fault {
		return fault.RandomP2PFault(rng, p.Rank, p.Site, p.Invocation, p.Kind)
	}}
	trials, _ := e.runTrials(context.Background(), seq, nil, n, false)
	pr := P2PPointResult{Point: p, Trials: trials}
	for _, t := range trials {
		pr.Counts.Add(t.Outcome)
	}
	return pr
}
