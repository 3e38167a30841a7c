package experiments

import (
	"fmt"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
)

// Table1 renders the application-response taxonomy (paper Table I). The
// taxonomy itself is executable: it is the classify.Outcome type the whole
// tool reports in.
func Table1(st *Store) (*Result, error) {
	r := newResult("table1", "Table I: Application response to fault injection in collective communications")
	descriptions := map[classify.Outcome]string{
		classify.Success:     "The program exits without error and generates the same result as the execution without fault injection",
		classify.AppDetected: "The program exits with error reported by the program itself",
		classify.MPIErr:      "The program exits with error reported by the MPI environment",
		classify.SegFault:    "The program exits with segmentation fault error",
		classify.WrongAns:    "The program exits but generates results different from those of the execution without fault injection",
		classify.InfLoop:     "The program does not exit and is killed because of timeout",
	}
	var rows [][]string
	var labels []string
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		rows = append(rows, []string{o.String(), descriptions[o]})
		labels = append(labels, o.String())
	}
	r.Labels["outcomes"] = labels
	r.Text = table([]string{"Abbreviation", "Notes"}, rows)
	return r, nil
}

// Table2 renders the configurable parameters of FastFIT (paper Table II),
// which the fault.Config environment-variable parser implements.
func Table2(st *Store) (*Result, error) {
	r := newResult("table2", "Table II: Configurable parameters for FastFIT")
	rows := [][]string{
		{fault.EnvNumInj, "unlimited", "Number of injected faults"},
		{fault.EnvInvID, fmt.Sprint(fault.WidthInvID), "Id of injected invocation"},
		{fault.EnvCallID, fmt.Sprint(fault.WidthCallID), "Id of MPI collective"},
		{fault.EnvRankID, "unlimited", "Id of injected rank"},
		{fault.EnvParamID, fmt.Sprint(fault.WidthParamID), "Id of injected parameter"},
	}
	r.Text = table([]string{"Abbreviation", "Width", "Notes"}, rows)
	return r, nil
}

// Table3 regenerates the reduction-ratio table (paper Table III): the
// semantic (MPI), context (App) and ML reductions per workload, and the
// total, each read from the app's pruned campaign.
func Table3(st *Store) (*Result, error) {
	r := newResult("table3", "Table III: Reduction ratio after applying the three techniques with FastFIT")
	header := []string{"", "MPI", "App", "ML", "Total"}
	var rows [][]string
	var appLabels []string
	for _, name := range AllApps {
		c, err := st.pruned(name)
		if err != nil {
			return nil, err
		}
		mlCell := "NA"
		if name == "minimd" {
			mlCell = pct(c.MLReduction)
		}
		rows = append(rows, []string{
			displayName(name), pct(c.SemanticReduction), pct(c.ContextReduction), mlCell, pct(c.TotalReduction),
		})
		appLabels = append(appLabels, displayName(name))
		r.Series[name] = []float64{c.SemanticReduction, c.ContextReduction, c.MLReduction, c.TotalReduction}
	}
	r.Labels["apps"] = appLabels
	r.Labels["columns"] = []string{"MPI", "App", "ML", "Total"}
	r.Text = table(header, rows)
	r.Notes = append(r.Notes,
		"Paper (32 ranks, class B / rhodopsin): IS 96.88/90.00/NA/99.69, FT 96.31/95.24/NA/99.78, MG 96.09/90.70/NA/99.64, LU 96.35/40.00/NA/97.81, LAMMPS 97.24/87.58/53.33/99.84 (percent).",
		"The MPI column grows with the rank count (1-2 representatives per site survive), so the quick scale reports smaller — but structurally identical — reductions.")
	return r, nil
}

// Table4 regenerates the feature/sensitivity correlation table (paper
// Table IV) using Eq. 1 over the LAMMPS stand-in's measured points.
func Table4(st *Store) (*Result, error) {
	r := newResult("table4", "Table IV: Correlation between application specific features and error rate level")
	c, err := st.Campaign("minimd")
	if err != nil {
		return nil, err
	}
	corr := core.CorrelationTable(c.Measured, 4)
	header := append([]string{""}, core.ExpandedFeatureNames...)
	row := []string{displayName("minimd")}
	var vals []float64
	for _, f := range core.ExpandedFeatureNames {
		row = append(row, fmt.Sprintf("%.2f", corr[f]))
		vals = append(vals, corr[f])
	}
	r.Series["minimd"] = vals
	r.Labels["features"] = core.ExpandedFeatureNames
	r.Text = table(header, [][]string{row})
	r.Notes = append(r.Notes,
		"Paper (LAMMPS): Init 0.56, Input 0.69, Compute 0.30, End 0.49, ErrHdl 0.64, Non-ErrHdl 0.36, nInv 0.41, nDiffGraph 0.47, StackDepth 0.37.",
		"Values near 0.5 mean no effect; the paper's strongest correlates are the input/init phases and error-handling code.")
	return r, nil
}

func displayName(app string) string {
	if app == "minimd" {
		return "LAMMPS (miniMD)"
	}
	return map[string]string{"is": "IS", "ft": "FT", "mg": "MG", "lu": "LU"}[app]
}
