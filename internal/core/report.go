package core

import (
	"sort"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/ml"
	"github.com/fastfit/fastfit/internal/mpi"
)

// OutcomeBreakdown tallies all trials of all measured points — the per-app
// error-type distributions of the paper's Figs. 7 and 10.
func OutcomeBreakdown(measured []PointResult) classify.Counts {
	var c classify.Counts
	for _, pr := range measured {
		c.Merge(pr.Counts)
	}
	return c
}

// OutcomeByCollective splits the trial tallies by collective type.
func OutcomeByCollective(measured []PointResult) map[mpi.CollType]classify.Counts {
	out := make(map[mpi.CollType]classify.Counts)
	for _, pr := range measured {
		c := out[pr.Point.Type]
		c.Merge(pr.Counts)
		out[pr.Point.Type] = c
	}
	return out
}

// LevelsByCollective counts measured points per three-band error-rate
// level (low <15%, med 15-85%, high >85%) for each collective type — the
// paper's Figs. 8 and 11.
func LevelsByCollective(measured []PointResult) map[mpi.CollType][3]int {
	out := make(map[mpi.CollType][3]int)
	for _, pr := range measured {
		l := classify.Level3(pr.ErrorRate())
		b := out[pr.Point.Type]
		b[l]++
		out[pr.Point.Type] = b
	}
	return out
}

// CorrelationTable computes the paper's Table IV: Eq. 1 correlations
// between the indicator-expanded application features and the error-rate
// level across measured points.
func CorrelationTable(measured []PointResult, levels int) map[string]float64 {
	ds := BuildExpandedLevelDataset(measured, levels)
	return ml.CorrelationTable(ds)
}

// SortedCollTypes returns the map keys in enum order for deterministic
// report rendering.
func SortedCollTypes[V any](m map[mpi.CollType]V) []mpi.CollType {
	keys := make([]mpi.CollType, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
