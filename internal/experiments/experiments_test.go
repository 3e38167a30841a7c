package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/fastfit/fastfit/internal/classify"
)

// The experiments are expensive, so one quick-scale store is shared by the
// whole test package and campaigns are computed once.
var (
	storeOnce sync.Once
	store     *Store
)

func testStore(t *testing.T) *Store {
	t.Helper()
	storeOnce.Do(func() {
		sc := QuickScale()
		sc.TrialsPerPoint = 10
		sc.Fig3Invocations = 16
		sc.Fig3Trials = 8
		store = NewStore(sc)
	})
	return store
}

func mustRun(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, testStore(t))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || res.Title == "" || res.Text == "" {
		t.Fatalf("%s: incomplete result: %+v", id, res)
	}
	return res
}

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing experiment %s", w)
		}
	}
	if _, err := Run("nope", testStore(t)); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTable1ListsTheSixResponses(t *testing.T) {
	res := mustRun(t, "table1")
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		if !strings.Contains(res.Text, o.String()) {
			t.Errorf("table1 missing %v", o)
		}
	}
}

func TestTable2ListsTheEnvVars(t *testing.T) {
	res := mustRun(t, "table2")
	for _, v := range []string{"NUM_INJ", "INV_ID", "CALL_ID", "RANK_ID", "PARAM_ID"} {
		if !strings.Contains(res.Text, v) {
			t.Errorf("table2 missing %s", v)
		}
	}
}

func TestTable3ReductionShapes(t *testing.T) {
	res := mustRun(t, "table3")
	for _, app := range AllApps {
		row := res.Series[app]
		if len(row) != 4 {
			t.Fatalf("%s row = %v", app, row)
		}
		semantic, context, _, total := row[0], row[1], row[2], row[3]
		if semantic < 0.5 {
			t.Errorf("%s semantic reduction = %.2f, want substantial", app, semantic)
		}
		if context <= 0 {
			t.Errorf("%s context reduction = %.2f, want > 0", app, context)
		}
		if total < 0.8 {
			t.Errorf("%s total reduction = %.2f, want >= 0.8 (paper: >0.97 at 32 ranks)", app, total)
		}
	}
	// ML applies to the LAMMPS stand-in only, as in the paper.
	if res.Series["minimd"][2] < 0 {
		t.Errorf("minimd ML reduction missing")
	}
}

func TestFig1EquivalentRanksRespondAlike(t *testing.T) {
	res := mustRun(t, "fig1")
	maxDiff := res.Series["maxDiff"][0]
	if maxDiff > 0.35 {
		t.Errorf("equivalent ranks differ by %.2f in error rate; paper shows near-identical responses", maxDiff)
	}
	if len(res.Series["rand1"]) != len(res.Series["rand2"]) {
		t.Errorf("per-parameter series mismatch")
	}
}

func TestFig2RootAndNonRootDiffer(t *testing.T) {
	res := mustRun(t, "fig2")
	// At least one parameter must show a visible role difference: the
	// recv buffer only matters on the root of MPI_Reduce, and the paper's
	// point is that the two roles are not interchangeable.
	if res.Series["maxDiff"][0] < 0.1 {
		t.Errorf("root vs non-root max difference = %.2f; paper shows distinct sensitivity", res.Series["maxDiff"][0])
	}
}

func TestFig3SameStackInvocationsCluster(t *testing.T) {
	res := mustRun(t, "fig3")
	g := res.Series["gaussian"]
	if len(g) != 2 {
		t.Fatalf("gaussian fit = %v", g)
	}
	sigma := g[1]
	if sigma > 25 {
		t.Errorf("same-stack error rates scatter with sigma=%.1f%%; paper finds tight clustering (7.69)", sigma)
	}
	if len(res.Series["rates"]) < 8 {
		t.Errorf("too few invocations sampled: %d", len(res.Series["rates"]))
	}
}

func TestFig4RendersADecisionTree(t *testing.T) {
	res := mustRun(t, "fig4")
	if !strings.Contains(res.Text, "->") {
		t.Errorf("no leaves rendered:\n%s", res.Text)
	}
}

func TestFig5DescribesArchitecture(t *testing.T) {
	res := mustRun(t, "fig5")
	for _, want := range []string{"Profiling", "Injection", "Learning", "Random Forest"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestFig6TradeoffIsMonotoneDownward(t *testing.T) {
	res := mustRun(t, "fig6")
	reds := res.Series["reductions"]
	ths := res.Series["thresholds"]
	if len(reds) != 7 || len(ths) != 7 {
		t.Fatalf("sweep size = %d/%d", len(ths), len(reds))
	}
	// The paper's shape: reduction falls (weakly) as the threshold rises.
	if reds[0] < reds[len(reds)-1] {
		t.Errorf("reduction at 45%% (%.2f) should be >= reduction at 75%% (%.2f)", reds[0], reds[len(reds)-1])
	}
	for _, r := range reds {
		if r < 0 || r > 1 {
			t.Errorf("reduction out of range: %v", r)
		}
	}
}

func TestFig7NPBShapes(t *testing.T) {
	res := mustRun(t, "fig7")
	for _, app := range NPBApps {
		fr := res.Series[app]
		if len(fr) != int(classify.NumOutcomes) {
			t.Fatalf("%s fractions = %v", app, fr)
		}
		infLoop := fr[classify.InfLoop]
		for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
			if o != classify.InfLoop && fr[o] < infLoop-0.05 {
				t.Errorf("%s: INF_LOOP (%.2f) should be among the rarest responses, but %v = %.2f", app, infLoop, o, fr[o])
			}
		}
		if seg := fr[classify.SegFault]; seg < 0.1 {
			t.Errorf("%s: SEG_FAULT = %.2f; paper reports it very common in NPB", app, seg)
		}
		if mpiErr := fr[classify.MPIErr]; mpiErr < 0.05 {
			t.Errorf("%s: MPI_ERR = %.2f; paper reports a significant MPI_ERR share", app, mpiErr)
		}
		if app != "is" {
			if appDet := fr[classify.AppDetected]; appDet > 0.25 {
				t.Errorf("%s: APP_DETECTED = %.2f; paper reports NPB detects few faults itself", app, appDet)
			}
		}
	}
}

func TestFig8BarrierIsMostDamaging(t *testing.T) {
	res := mustRun(t, "fig8")
	barrier, ok := res.Series["MPI_Barrier"]
	if !ok {
		t.Fatal("no barrier series")
	}
	if barrier[2] < 0.9 {
		t.Errorf("barrier high-band share = %.2f; faulty barriers are lethal in the paper", barrier[2])
	}
}

func TestFig9ParameterContrast(t *testing.T) {
	res := mustRun(t, "fig9")
	recv := res.Series["recvbuf"]
	if recv[classify.Success] < 0.95 {
		t.Errorf("recvbuf SUCCESS = %.2f; the library overwrites the corrupted buffer", recv[classify.Success])
	}
	for _, param := range []string{"count", "datatype", "op", "comm"} {
		fr := res.Series[param]
		severe := fr[classify.SegFault] + fr[classify.MPIErr]
		if severe < 0.7 {
			t.Errorf("%s severe responses = %.2f; paper reports high impact", param, severe)
		}
	}
	send := res.Series["sendbuf"]
	if send[classify.SegFault] > 0.3 {
		t.Errorf("sendbuf SEG_FAULT = %.2f; data faults rarely crash", send[classify.SegFault])
	}
}

func TestFig10LAMMPSShapes(t *testing.T) {
	res := mustRun(t, "fig10")
	all := res.Series["ALL"]
	if all[classify.Success] < 0.4 {
		t.Errorf("overall SUCCESS = %.2f; paper reports ~65%% for LAMMPS", all[classify.Success])
	}
	// SUCCESS must be the most common response.
	for o := classify.Outcome(1); o < classify.NumOutcomes; o++ {
		if all[o] > all[classify.Success] {
			t.Errorf("%v (%.2f) exceeds SUCCESS (%.2f)", o, all[o], all[classify.Success])
		}
	}
	if all[classify.AppDetected] < 0.1 {
		t.Errorf("APP_DETECTED = %.2f; paper reports 21%% thanks to LAMMPS's error handling", all[classify.AppDetected])
	}
	if all[classify.InfLoop] > 0.05 {
		t.Errorf("INF_LOOP = %.2f; paper reports it rarest", all[classify.InfLoop])
	}
}

func TestFig11BarrierLethalAllreduceMild(t *testing.T) {
	res := mustRun(t, "fig11")
	if b, ok := res.Series["MPI_Barrier"]; ok && b[2] < 0.9 {
		t.Errorf("barrier high band = %.2f, want lethal", b[2])
	}
	ar := res.Series["MPI_Allreduce"]
	if ar[0] < 0.3 {
		t.Errorf("allreduce low band = %.2f; paper reports surprisingly low error rates", ar[0])
	}
}

func TestFig12TypePredictionQuality(t *testing.T) {
	res := mustRun(t, "fig12")
	recall := res.Series["recall"]
	if len(recall) == 0 {
		t.Fatal("no recall series")
	}
	good := 0
	for _, v := range recall {
		if v < -1 || v > 1 {
			t.Fatalf("recall out of range: %v", v)
		}
		if v >= 0.5 {
			good++
		}
	}
	if good < 2 {
		t.Errorf("fewer than two classes predicted with >=50%% recall: %v", recall)
	}
}

func TestFig13LevelPredictionQuality(t *testing.T) {
	res := mustRun(t, "fig13")
	two := res.Series["levels2"]
	if len(two) != 2 {
		t.Fatalf("2-level series = %v", two)
	}
	// Paper: over 80% correct for the binary classification; allow slack
	// at the tiny test scale.
	for l, v := range two {
		if v >= 0 && v < 0.4 {
			t.Errorf("2-level recall[%d] = %.2f", l, v)
		}
	}
	if len(res.Series["levels3"]) != 3 {
		t.Fatalf("3-level series missing")
	}
}

func TestTable4CorrelationShapes(t *testing.T) {
	res := mustRun(t, "table4")
	vals := res.Series["minimd"]
	labels := res.Labels["features"]
	if len(vals) != len(labels) {
		t.Fatalf("series/labels mismatch")
	}
	idx := map[string]float64{}
	for i, l := range labels {
		idx[l] = vals[i]
	}
	for l, v := range idx {
		if v < 0 || v > 1 {
			t.Errorf("correlation %s = %v outside [0,1]", l, v)
		}
	}
	// Eq. 1 is antisymmetric around 0.5 for complementary indicators.
	if d := idx["ErrHdl"] + idx["Non-ErrHdl"]; d < 0.95 || d > 1.05 {
		t.Errorf("ErrHdl + Non-ErrHdl = %v, want ~1 (complementary indicators)", d)
	}
	// Error-handling code must correlate positively with sensitivity (the
	// paper's central Table IV finding: 0.64 vs 0.36).
	if idx["ErrHdl"] <= idx["Non-ErrHdl"] {
		t.Errorf("ErrHdl (%v) should exceed Non-ErrHdl (%v)", idx["ErrHdl"], idx["Non-ErrHdl"])
	}
}

func TestStoreCachesCampaigns(t *testing.T) {
	st := testStore(t)
	c1, err := st.Campaign("is")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := st.Campaign("is")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("campaigns should be cached")
	}
	if _, err := st.Campaign("bogus"); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestScalesAreSane(t *testing.T) {
	q, p := QuickScale(), PaperScale()
	if q.Ranks >= p.Ranks || q.TrialsPerPoint >= p.TrialsPerPoint {
		t.Fatal("paper scale should exceed quick scale")
	}
	if p.Ranks != 32 || p.TrialsPerPoint != 100 {
		t.Fatalf("paper scale should match the paper's setup: %+v", p)
	}
}

func TestWriteCSV(t *testing.T) {
	r := newResult("figX", "Test figure")
	r.Series["alpha"] = []float64{0.5, 1.25}
	r.Series["beta"] = []float64{3}
	r.Labels["cols"] = []string{"a", "b"}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# figX", "alpha,0.5,1.25", "beta,3", "labels:cols,a,b"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryAggregates(t *testing.T) {
	res, err := Run("summary", testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reduction", "NPB findings", "LAMMPS", "error-handling"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	if res.Series["minTotalReduction"][0] < 0.8 {
		t.Errorf("minimum total reduction = %v", res.Series["minTotalReduction"][0])
	}
}

// The summary's LAMMPS line reports the ML campaign's injected count, the
// campaign its reduction percentage comes from. It runs at the quick scale
// of results/quick, where the ML loop predicts some of the points.
func TestSummaryInjectedMatchesMLCampaign(t *testing.T) {
	st := NewStore(QuickScale())
	res, err := Summary(st)
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Campaign("minimd")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := st.MLCampaign("minimd")
	if err != nil {
		t.Fatal(err)
	}
	if mc.Injected == c.AfterContext {
		t.Fatalf("the ML campaign injects all %d points; the check needs one that predicts some", mc.Injected)
	}
	want := fmt.Sprintf("(%d points -> %d injected)", c.TotalPoints, mc.Injected)
	for _, line := range strings.Split(res.Text, "\n") {
		if strings.Contains(line, displayName("minimd")) && strings.Contains(line, "injected") {
			if !strings.Contains(line, want) {
				t.Errorf("summary line %q, want it to end %q", line, want)
			}
			return
		}
	}
	t.Errorf("summary has no injected count for minimd:\n%s", res.Text)
}

func TestAblationComposition(t *testing.T) {
	res, err := Run("ablation", testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AllApps {
		row := res.Series[app]
		if len(row) != 4 {
			t.Fatalf("%s row = %v", app, row)
		}
		all, semOnly, ctxOnly, both := row[0], row[1], row[2], row[3]
		if !(both <= semOnly && both <= ctxOnly && semOnly < all && ctxOnly < all) {
			t.Errorf("%s: pruning composition violated: %v", app, row)
		}
	}
}
