package core

import (
	"fmt"
	"sort"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

// Point is one fault injection point — a (rank, call site, invocation)
// triple — together with the application features FastFIT's learning phase
// consumes (paper §III-C).
type Point struct {
	Rank       int          `json:"rank"`
	Site       uintptr      `json:"site"`
	SiteName   string       `json:"siteName"`
	Type       mpi.CollType `json:"collType"`
	Invocation int          `json:"invocation"`
	StackHash  uint64       `json:"stackHash"`

	// Application features.
	Phase       mpi.Phase `json:"phase"`       // execution phase at the invocation
	ErrHandling bool      `json:"errHandling"` // invocation sits in error-handling code
	IsRoot      bool      `json:"isRoot"`      // rank is the collective's root (rooted types)
	NInv        int       `json:"nInv"`        // total invocations of this site on this rank
	StackDepth  int       `json:"stackDepth"`  // call-stack depth at the invocation
	NDiffStacks int       `json:"nDiffStacks"` // distinct call stacks seen at this site
}

// FeatureNames are the six application features of the paper, in the order
// FeatureVector emits them.
var FeatureNames = []string{"Type", "Phase", "ErrHal", "nInv", "StackDep", "nDiffStack"}

// FeatureVector encodes the point's features numerically for the ML model.
func (p *Point) FeatureVector() []float64 {
	errHal := 0.0
	if p.ErrHandling {
		errHal = 1
	}
	return []float64{
		float64(p.Type),
		float64(p.Phase),
		errHal,
		float64(p.NInv),
		float64(p.StackDepth),
		float64(p.NDiffStacks),
	}
}

// ExpandedFeatureNames are the indicator-expanded features of the paper's
// Table IV, in the order ExpandedFeatureVector emits them.
var ExpandedFeatureNames = []string{
	"Init Phase", "Input Phase", "Compute Phase", "End Phase",
	"ErrHdl", "Non-ErrHdl", "nInv", "nDiffGraph", "StackDepth",
}

// ExpandedFeatureVector encodes the Table IV feature set: one indicator
// per phase, indicators for error-handling and regular code, and the three
// numeric features.
func (p *Point) ExpandedFeatureVector() []float64 {
	v := make([]float64, len(ExpandedFeatureNames))
	if p.Phase >= 0 && int(p.Phase) < 4 {
		v[p.Phase] = 1
	}
	if p.ErrHandling {
		v[4] = 1
	} else {
		v[5] = 1
	}
	v[6] = float64(p.NInv)
	v[7] = float64(p.NDiffStacks)
	v[8] = float64(p.StackDepth)
	return v
}

func (p *Point) String() string {
	return fmt.Sprintf("rank %d %s inv %d (%v, phase %v)", p.Rank, p.SiteName, p.Invocation, p.Type, p.Phase)
}

// TrialResult is one fault-injection test at a point: the fault's target
// and raw bit, and the outcome. A collective point's trials carry a
// collective or network target (validate refuses any other); a p2p point's
// (P2PPointResult) carry a point-to-point one.
type TrialResult struct {
	Target  fault.Target     `json:"target"`
	Bit     int              `json:"bit"`
	Outcome classify.Outcome `json:"outcome"`
}

// PointResult aggregates a point's fault-injection tests. Counts is the
// tally of Trials: it is not persisted, validate rebuilds it on load.
type PointResult struct {
	Point  Point           `json:"point"`
	Trials []TrialResult   `json:"trials"`
	Counts classify.Counts `json:"-"`
}

// validate is the one gate every decoded point result passes — campaign
// file, checkpoint journal, shard wire batch and coordinator WAL alike. It
// holds each trial's enum-valued fields and bit index to the range the
// engine draws from, so a corrupt or hand-edited record surfaces a
// descriptive error instead of poisoning downstream statistics (a recorded
// (target, bit, outcome) decides the outcome of the point's later trials of
// the same effective fault), and rebuilds Counts from the trials.
func (pr *PointResult) validate() error {
	pr.Counts = classify.Counts{}
	for i, tr := range pr.Trials {
		switch {
		case tr.Outcome < 0 || tr.Outcome >= classify.NumOutcomes:
			return fmt.Errorf("trial %d: invalid outcome %d (valid range 0..%d)", i, tr.Outcome, int(classify.NumOutcomes)-1)
		case tr.Target < 0 || tr.Target >= fault.NumTargets:
			return fmt.Errorf("trial %d: invalid fault target %d (valid range 0..%d)", i, tr.Target, int(fault.NumTargets)-1)
		case tr.Target.IsP2P():
			return fmt.Errorf("trial %d: point-to-point fault target %d (%v) in a collective point's record", i, tr.Target, tr.Target)
		case tr.Bit < 0 || tr.Bit >= fault.BitSpace:
			return fmt.Errorf("trial %d: invalid fault bit %d (valid range 0..%d)", i, tr.Bit, fault.BitSpace-1)
		}
		pr.Counts.Add(tr.Outcome)
	}
	return nil
}

// ErrorRate returns the fraction of trials with a non-SUCCESS outcome.
func (pr *PointResult) ErrorRate() float64 { return pr.Counts.ErrorRate() }

// CountsByTarget tallies outcomes separately per injected parameter.
func (pr *PointResult) CountsByTarget() map[fault.Target]classify.Counts {
	out := make(map[fault.Target]classify.Counts)
	for _, t := range pr.Trials {
		c := out[t.Target]
		c.Add(t.Outcome)
		out[t.Target] = c
	}
	return out
}

// MajorityOutcome returns the most frequent outcome across trials
// (SUCCESS wins ties deterministically by enum order).
func (pr *PointResult) MajorityOutcome() classify.Outcome {
	best := classify.Outcome(0)
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		if pr.Counts[o] > pr.Counts[best] {
			best = o
		}
	}
	return best
}

// enumeratePoints expands a profile into the full fault-injection space,
// sorted deterministically.
func enumeratePoints(p *profile.Profile) []Point {
	var out []Point
	for _, s := range p.SiteList() {
		for _, iv := range s.Invs {
			out = append(out, Point{
				Rank:        s.Rank,
				Site:        s.PC,
				SiteName:    s.Name,
				Type:        s.Type,
				Invocation:  iv.Index,
				StackHash:   iv.StackHash,
				Phase:       iv.Phase,
				ErrHandling: iv.ErrHandling,
				IsRoot:      iv.IsRoot,
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
	return out
}
