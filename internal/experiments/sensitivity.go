package experiments

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// outcomeLabels lists the Table I classes in presentation order.
func outcomeLabels() []string {
	out := make([]string, classify.NumOutcomes)
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		out[o] = o.String()
	}
	return out
}

func outcomeFractions(c classify.Counts) []float64 {
	out := make([]float64, classify.NumOutcomes)
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		out[o] = c.Fraction(o)
	}
	return out
}

func renderOutcomeTable(names []string, counts []classify.Counts) string {
	header := append([]string{""}, outcomeLabels()...)
	var rows [][]string
	for i, n := range names {
		row := []string{n}
		for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
			row = append(row, pct(counts[i].Fraction(o)))
		}
		rows = append(rows, row)
	}
	return table(header, rows)
}

// renderLevelTable fills r with the low/med/high share of injection points
// per collective type (the shape of paper Figs. 8 and 11); collectives with
// no measured point are left out.
func renderLevelTable(r *Result, byColl map[mpi.CollType][3]int) {
	header := []string{"", "low", "med", "high", "points"}
	var rows [][]string
	var labels []string
	for _, t := range core.SortedCollTypes(byColl) {
		b := byColl[t]
		tot := b[0] + b[1] + b[2]
		if tot == 0 {
			continue
		}
		shares := []float64{float64(b[0]) / float64(tot), float64(b[1]) / float64(tot), float64(b[2]) / float64(tot)}
		rows = append(rows, []string{t.String(), pct(shares[0]), pct(shares[1]), pct(shares[2]), fmt.Sprint(tot)})
		labels = append(labels, t.String())
		r.Series[t.String()] = shares
	}
	r.Labels["collectives"] = labels
	r.Labels["levels"] = []string{"low", "med", "high"}
	r.Text = table(header, rows)
}

// Fig7 regenerates the NPB error-type breakdown (paper Fig. 7): the
// response distribution when faults are injected into each kernel's
// collectives under the data-buffer policy.
func Fig7(st *Store) (*Result, error) {
	r := newResult("fig7", "Fig. 7: NPB benchmarks' response in error types")
	var names []string
	var counts []classify.Counts
	for _, name := range NPBApps {
		c, err := st.Campaign(name)
		if err != nil {
			return nil, err
		}
		agg := core.OutcomeBreakdown(c.Measured)
		names = append(names, displayName(name))
		counts = append(counts, agg)
		r.Series[name] = outcomeFractions(agg)
	}
	r.Labels["apps"] = names
	r.Labels["outcomes"] = outcomeLabels()
	r.Text = renderOutcomeTable(names, counts)
	r.Notes = append(r.Notes,
		"Paper shape: INF_LOOP rarest everywhere; FT dominated by MPI_ERR (46%); SEG_FAULT very common and second only to SUCCESS (IS 44%, MG 28%, LU 24%); APP_DETECTED small for NPB.")
	return r, nil
}

// Fig8 regenerates the NPB error-rate-level distribution per collective
// (paper Fig. 8): per collective type, the share of injection points whose
// error rate is low (<15%), med (15-85%) or high (>85%).
func Fig8(st *Store) (*Result, error) {
	r := newResult("fig8", "Fig. 8: NPB benchmarks' response in error rate levels per collective")
	agg := map[mpi.CollType][3]int{}
	for _, name := range NPBApps {
		c, err := st.Campaign(name)
		if err != nil {
			return nil, err
		}
		for t, b := range core.LevelsByCollective(c.Measured) {
			cur := agg[t]
			for i := range cur {
				cur[i] += b[i]
			}
			agg[t] = cur
		}
	}
	renderLevelTable(r, agg)
	r.Notes = append(r.Notes,
		"Paper shape: faulty MPI_Reduce and MPI_Barrier are the most damaging; MPI_Alltoallv the mildest.")
	return r, nil
}

// Fig9 regenerates the per-parameter study for MPI_Allreduce (paper
// Fig. 9): inject into each input parameter separately across the NPB
// kernels' Allreduce sites.
func Fig9(st *Store) (*Result, error) {
	r := newResult("fig9", "Fig. 9: NPB response in error types per MPI_Allreduce parameter")
	targets := fault.TargetsFor(mpi.CollAllreduce)
	tally := make([]classify.Counts, len(targets))
	for _, name := range NPBApps {
		e, err := st.Engine(name)
		if err != nil {
			return nil, err
		}
		prof, err := e.Profile()
		if err != nil {
			return nil, err
		}
		points, err := e.Points()
		if err != nil {
			return nil, err
		}
		points, _ = core.SemanticPrune(prof, points)
		points, _ = core.ContextPrune(points)
		idx := 0
		for _, p := range points {
			if p.Type != mpi.CollAllreduce {
				continue
			}
			for ti, target := range targets {
				pr := e.InjectPointTarget(p, idx*len(targets)+ti+100000, st.Scale.TrialsPerPoint, target)
				tally[ti].Merge(pr.Counts)
			}
			idx++
		}
	}
	var names []string
	for ti, target := range targets {
		names = append(names, target.String())
		r.Series[target.String()] = outcomeFractions(tally[ti])
	}
	r.Labels["params"] = names
	r.Labels["outcomes"] = outcomeLabels()
	r.Text = renderOutcomeTable(names, tally)
	r.Notes = append(r.Notes,
		"Paper shape: recvbuf faults are largely benign (overwritten by the library); sendbuf faults are mostly detected or silent; count/datatype/op/comm faults have high impact and frequently SEG_FAULT.")
	return r, nil
}

// Fig10 regenerates the LAMMPS error-type breakdown (paper Fig. 10) on the
// miniMD stand-in, split per collective type.
func Fig10(st *Store) (*Result, error) {
	r := newResult("fig10", "Fig. 10: LAMMPS (miniMD) response in error types per collective")
	c, err := st.Campaign("minimd")
	if err != nil {
		return nil, err
	}
	byColl := core.OutcomeByCollective(c.Measured)
	var names []string
	var counts []classify.Counts
	for _, t := range core.SortedCollTypes(byColl) {
		names = append(names, t.String())
		counts = append(counts, byColl[t])
		r.Series[t.String()] = outcomeFractions(byColl[t])
	}
	overall := core.OutcomeBreakdown(c.Measured)
	names = append(names, "ALL")
	counts = append(counts, overall)
	r.Series["ALL"] = outcomeFractions(overall)
	r.Labels["collectives"] = names
	r.Labels["outcomes"] = outcomeLabels()
	r.Text = renderOutcomeTable(names, counts)
	r.Notes = append(r.Notes,
		"Paper shape: SUCCESS dominates (~65%); APP_DETECTED second (21.24%) thanks to LAMMPS's mature error handling; SEG_FAULT ~10%; WRONG_ANS and INF_LOOP rare.")
	return r, nil
}

// Fig11 regenerates the LAMMPS error-rate-level distribution per
// collective (paper Fig. 11).
func Fig11(st *Store) (*Result, error) {
	r := newResult("fig11", "Fig. 11: LAMMPS (miniMD) response in error rate levels per collective")
	c, err := st.Campaign("minimd")
	if err != nil {
		return nil, err
	}
	renderLevelTable(r, core.LevelsByCollective(c.Measured))
	r.Notes = append(r.Notes,
		"Paper shape: faulty MPI_Barrier is lethal (high/med dominated); MPI_Allreduce shows a low error rate despite being >84% of LAMMPS's collectives.")
	return r, nil
}
