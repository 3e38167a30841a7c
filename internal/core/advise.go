package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The paper's motivation for the whole study is a *resilient system
// design* decision: "if an MPI communication is very critical and also
// results in more than 20% error rate, then we decide to enforce
// fault-tolerance" (§III-C), and the per-collective variance "indicates
// that there is a need for adaptive fault-tolerance mechanism rather than
// a single uniform fault-tolerant mechanism across all collectives"
// (§V-C). This file turns campaign results into that decision and stops
// there, as the paper does: an Advice names a protection level for a call
// site, and applying it is left to the application (nothing here wraps or
// replaces a collective).

// Action is the recommended protection level for a call site.
type Action int

const (
	// ActionNone: faults are tolerated or benign; no protection needed.
	ActionNone Action = iota
	// ActionDetect: the application should add detection (checksums,
	// sanity checks) — errors are frequent but mostly visible or
	// recoverable.
	ActionDetect
	// ActionProtect: the application should add full fault tolerance
	// (replication or protected collectives) — faults are frequent and
	// severe.
	ActionProtect
)

func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionDetect:
		return "detect"
	case ActionProtect:
		return "protect"
	}
	return "unknown"
}

// Advice is the recommendation for one call site.
type Advice struct {
	SiteName  string
	Type      mpi.CollType
	ErrorRate float64
	// SevereRate is the fraction of trials that crashed, hung or silently
	// corrupted output — the failures detection alone cannot absorb.
	SevereRate float64
	Action     Action
	Rationale  string
}

// AdviceThresholds tunes the decision; zero values pick the paper-aligned
// defaults (20% error rate gates protection).
type AdviceThresholds struct {
	// ErrorRate above which a site needs any attention (default 0.2, the
	// paper's example criterion).
	ErrorRate float64
	// SevereRate above which detection is not enough and full protection
	// is advised (default 0.1).
	SevereRate float64
}

func (t AdviceThresholds) withDefaults() AdviceThresholds {
	if t.ErrorRate <= 0 {
		t.ErrorRate = 0.20
	}
	if t.SevereRate <= 0 {
		t.SevereRate = 0.10
	}
	return t
}

// Advise aggregates measured results per call site and recommends a
// protection level for each, most severe first.
func Advise(measured []PointResult, th AdviceThresholds) []Advice {
	th = th.withDefaults()
	type agg struct {
		name   string
		typ    mpi.CollType
		trials int
		errs   int
		severe int
	}
	bySite := map[uintptr]*agg{}
	for _, pr := range measured {
		a := bySite[pr.Point.Site]
		if a == nil {
			a = &agg{name: pr.Point.SiteName, typ: pr.Point.Type}
			bySite[pr.Point.Site] = a
		}
		for _, tr := range pr.Trials {
			a.trials++
			if tr.Outcome.IsError() {
				a.errs++
			}
			switch tr.Outcome {
			case classify.SegFault, classify.WrongAns, classify.InfLoop:
				a.severe++
			}
		}
	}
	var out []Advice
	for _, a := range bySite {
		if a.trials == 0 {
			continue
		}
		adv := Advice{
			SiteName:   a.name,
			Type:       a.typ,
			ErrorRate:  float64(a.errs) / float64(a.trials),
			SevereRate: float64(a.severe) / float64(a.trials),
		}
		switch {
		case adv.ErrorRate > th.ErrorRate && adv.SevereRate > th.SevereRate:
			adv.Action = ActionProtect
			adv.Rationale = fmt.Sprintf("error rate %.0f%% with %.0f%% crashes/hangs/silent corruption exceeds the %.0f%%/%.0f%% protection criterion",
				100*adv.ErrorRate, 100*adv.SevereRate, 100*th.ErrorRate, 100*th.SevereRate)
		case adv.ErrorRate > th.ErrorRate:
			adv.Action = ActionDetect
			adv.Rationale = fmt.Sprintf("error rate %.0f%% is high but failures are predominantly detected or recoverable",
				100*adv.ErrorRate)
		default:
			adv.Action = ActionNone
			adv.Rationale = fmt.Sprintf("error rate %.0f%% below the %.0f%% criterion",
				100*adv.ErrorRate, 100*th.ErrorRate)
		}
		out = append(out, adv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Action != out[j].Action {
			return out[i].Action > out[j].Action
		}
		if out[i].ErrorRate != out[j].ErrorRate {
			return out[i].ErrorRate > out[j].ErrorRate
		}
		return out[i].SiteName < out[j].SiteName
	})
	return out
}

// RenderAdvice formats the recommendations as an aligned report.
func RenderAdvice(advice []Advice) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-18s %-9s %-9s %s\n", "action", "collective", "err rate", "severe", "site")
	for _, a := range advice {
		fmt.Fprintf(&sb, "%-8s %-18s %-9s %-9s %s\n",
			a.Action, a.Type, fmt.Sprintf("%.1f%%", 100*a.ErrorRate),
			fmt.Sprintf("%.1f%%", 100*a.SevereRate), a.SiteName)
	}
	return sb.String()
}
