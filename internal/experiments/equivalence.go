package experiments

import (
	"fmt"
	"math"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// findPoint returns the first enumerated point matching the predicate.
func findPoint(points []core.Point, pred func(core.Point) bool) (core.Point, bool) {
	for _, p := range points {
		if pred(p) {
			return p, true
		}
	}
	return core.Point{}, false
}

// side is one of the two points a Fig. 1/2 comparison injects.
type side struct {
	p      core.Point
	seed   int    // seed base of its per-parameter sweeps
	series string // its Series key
	column string // its table column
}

// comparePoints injects every parameter of two points of one collective
// separately and compares them parameter by parameter. It fills r with
// their per-parameter error rates (Series a.series, b.series), outcome
// fractions (a.series+":"+parameter) and largest rate difference
// ("maxDiff"), and returns the rendered table and that difference.
func comparePoints(r *Result, e *core.Engine, trials int, a, b side) (string, float64) {
	targets := fault.TargetsFor(a.p.Type)
	rates := func(s side) ([]float64, []classify.Counts) {
		rs, tallies := make([]float64, len(targets)), make([]classify.Counts, len(targets))
		for i, target := range targets {
			pr := e.InjectPointTarget(s.p, s.seed+i, trials, target)
			rs[i], tallies[i] = pr.ErrorRate(), pr.Counts
		}
		return rs, tallies
	}
	ratesA, talliesA := rates(a)
	ratesB, talliesB := rates(b)

	var labels []string
	var rows [][]string
	maxDiff := 0.0
	for i, target := range targets {
		labels = append(labels, target.String())
		d := math.Abs(ratesA[i] - ratesB[i])
		maxDiff = max(maxDiff, d)
		rows = append(rows, []string{target.String(), pct(ratesA[i]), pct(ratesB[i]), pct(d)})
		r.Series[a.series+":"+target.String()] = outcomeFractions(talliesA[i])
		r.Series[b.series+":"+target.String()] = outcomeFractions(talliesB[i])
	}
	r.Series[a.series], r.Series[b.series] = ratesA, ratesB
	r.Series["maxDiff"] = []float64{maxDiff}
	r.Labels["params"] = labels
	r.Labels["outcomes"] = outcomeLabels()
	return table([]string{"parameter", a.column, b.column, "|diff|"}, rows), maxDiff
}

// Fig1 regenerates the semantic-equivalence validation (paper Fig. 1):
// inject the same faults into two "equivalent" non-root ranks of an
// MPI_Allreduce in LU and compare their per-parameter responses. The two
// ranks should respond very similarly — the justification for injecting
// into only one representative of an equivalence class.
func Fig1(st *Store) (*Result, error) {
	r := newResult("fig1", "Fig. 1: Fault injection into two equivalent ranks of an MPI_Allreduce in LU")
	e, err := st.Engine("lu")
	if err != nil {
		return nil, err
	}
	points, err := e.Points()
	if err != nil {
		return nil, err
	}
	rankA, rankB := 1, 2 // two arbitrary ranks: all are equivalent for Allreduce
	pa, okA := findPoint(points, func(p core.Point) bool {
		return p.Type == mpi.CollAllreduce && p.Phase == mpi.PhaseCompute && p.Rank == rankA && p.Invocation == 0
	})
	pb, okB := findPoint(points, func(p core.Point) bool {
		return p.Type == mpi.CollAllreduce && p.Phase == mpi.PhaseCompute && p.Rank == rankB && p.Site == pa.Site && p.Invocation == 0
	})
	if !okA || !okB {
		return nil, fmt.Errorf("no matching LU Allreduce points found")
	}

	tbl, maxDiff := comparePoints(r, e, st.Scale.TrialsPerPoint,
		side{pa, 11000, "rand1", fmt.Sprintf("rank %d err", rankA)},
		side{pb, 12000, "rand2", fmt.Sprintf("rank %d err", rankB)})
	r.Text = fmt.Sprintf("site: %s\nranks compared: %d vs %d\n\n%s\nmax per-parameter error-rate difference: %s\n",
		pa.SiteName, rankA, rankB, tbl, pct(maxDiff))
	r.Notes = append(r.Notes,
		"Paper shape: the two equivalent processes display very similar sensitivity across all parameters.")
	return r, nil
}

// Fig2 regenerates the root-vs-non-root contrast (paper Fig. 2): inject
// into the root and a non-root rank of an MPI_Reduce in FT; the responses
// should differ, showing the two roles are NOT equivalent.
func Fig2(st *Store) (*Result, error) {
	r := newResult("fig2", "Fig. 2: Fault injection into the root and a non-root rank of an MPI_Reduce in FT")
	e, err := st.Engine("ft")
	if err != nil {
		return nil, err
	}
	points, err := e.Points()
	if err != nil {
		return nil, err
	}
	proot, okA := findPoint(points, func(p core.Point) bool {
		return p.Type == mpi.CollReduce && p.IsRoot && p.Invocation == 0
	})
	pnon, okB := findPoint(points, func(p core.Point) bool {
		return p.Type == mpi.CollReduce && !p.IsRoot && p.Site == proot.Site && p.Invocation == 0
	})
	if !okA || !okB {
		return nil, fmt.Errorf("no matching FT Reduce points found")
	}

	tbl, maxDiff := comparePoints(r, e, st.Scale.TrialsPerPoint,
		side{proot, 21000, "root", "root err"},
		side{pnon, 22000, "nonroot", "non-root err"})
	r.Text = fmt.Sprintf("site: %s\nroot rank %d vs non-root rank %d\n\n%s\nmax per-parameter error-rate difference: %s\n",
		proot.SiteName, proot.Rank, pnon.Rank, tbl, pct(maxDiff))
	r.Notes = append(r.Notes,
		"Paper shape: the root and non-root processes reveal different sensitivities, so rooted collectives need both roles injected.")
	return r, nil
}
