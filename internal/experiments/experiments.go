// Package experiments regenerates every table and figure of the paper's
// evaluation (CLUSTER 2015, §V): the pruning effectiveness results
// (Table III, Fig. 6), the equivalence-validation studies (Figs. 1-3), the
// sensitivity characterisations (Figs. 7-11), the ML prediction accuracy
// (Figs. 12-13) and the feature correlation analysis (Table IV), plus the
// static artefacts (Tables I-II, Figs. 4-5).
//
// Each experiment is a named generator producing a Result with both a
// rendered report and machine-readable data series, so the same code backs
// the ffexp CLI, the test suite and the benchmark harness.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Scale selects how big the regenerated experiments run. The paper's setup
// (32 ranks, >=100 trials per point) is expensive on a laptop; Quick keeps
// every shape observable in seconds.
type Scale struct {
	Name           string
	Ranks          int
	TrialsPerPoint int
	// Fig3Invocations is the number of same-stack invocations sampled for
	// the error-rate distribution study (the paper uses 100).
	Fig3Invocations int
	// Fig3Trials is the number of tests per invocation in that study.
	Fig3Trials int
	Seed       int64
	// Adaptive turns on adaptive trial budgets (sequential early stopping
	// plus refinement) for every campaign the store runs; the "adaptive"
	// experiment compares the two modes regardless of this setting.
	Adaptive bool
	// Confidence is the settling-rule confidence (0 = default 0.95).
	Confidence float64
}

// QuickScale runs everything in seconds (8 ranks, 20 trials).
func QuickScale() Scale {
	return Scale{Name: "quick", Ranks: 8, TrialsPerPoint: 20, Fig3Invocations: 40, Fig3Trials: 12, Seed: 7}
}

// PaperScale matches the paper's setup: 32 ranks and 100 trials per point.
// The settling confidence is raised to 99.9% as a family-wise correction:
// across the ~30-40 points that settle early in a paper-scale sweep, a 5%
// per-point false-stop rate expects ~2 majority flips, while 0.1% makes
// campaign-level dominant-outcome agreement near-certain. Strongly dominated
// points still settle at the 12+3-trial floor under the stricter bound.
func PaperScale() Scale {
	return Scale{Name: "paper", Ranks: 32, TrialsPerPoint: 100, Fig3Invocations: 100, Fig3Trials: 100, Seed: 7, Confidence: 0.999}
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Series holds the machine-readable data: name -> values. Conventions
	// are documented per experiment.
	Series map[string][]float64
	// Labels holds axis/category labels keyed like Series.
	Labels map[string][]string
	// Text is the rendered human-readable report.
	Text string
	// Notes records paper-vs-measured observations.
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{
		ID:     id,
		Title:  title,
		Series: map[string][]float64{},
		Labels: map[string][]string{},
	}
}

// WriteCSV emits the result's machine-readable series as CSV (one row per
// series, sorted by name), for plotting the regenerated figures with
// external tools.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + r.ID, r.Title}); err != nil {
		return err
	}
	for _, name := range sortedKeys(r.Series) {
		row := []string{name}
		for _, v := range r.Series[name] {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.Labels) {
		row := append([]string{"labels:" + name}, r.Labels[name]...)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Generator produces one experiment's Result at the given scale, using the
// shared Store for cached campaigns.
type Generator func(st *Store) (*Result, error)

// registry lists every experiment by id, in presentation order.
var registry = []struct {
	id  string
	gen Generator
}{
	{"table1", Table1},
	{"table2", Table2},
	{"fig1", Fig1},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"table3", Table3},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"table4", Table4},
	{"ablation", Ablation},
	{"adaptive", AdaptiveBudget},
	{"summary", Summary},
}

// IDs returns the experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, x := range registry {
		ids[i] = x.id
	}
	return ids
}

// Run generates one experiment by id.
func Run(id string, st *Store) (*Result, error) {
	for _, x := range registry {
		if x.id == id {
			return x.gen(st)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (have %v)", id, IDs())
}

// ---- small rendering helpers ----

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// bar renders a crude horizontal bar for text figures.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
