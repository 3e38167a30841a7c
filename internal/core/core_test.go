package core

import (
	"context"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// toyApp is a minimal deterministic workload: a root broadcast, a compute
// loop of allreduces (one annotated as error handling) and a final reduce.
type toyApp struct{}

func (toyApp) Name() string { return "toy" }

func (toyApp) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 4, Scale: 8, Iters: 3, Seed: 11}
}

func (toyApp) Main(r *mpi.Rank, cfg apps.Config) error {
	r.SetPhase(mpi.PhaseInit)
	params := r.BcastInt64s([]int64{int64(cfg.Iters)}, 0, mpi.CommWorld)
	iters := int(params[0])
	r.Barrier(mpi.CommWorld)

	r.SetPhase(mpi.PhaseCompute)
	acc := float64(r.ID())
	for i := 0; i < iters; i++ {
		r.Tick(100)
		acc = r.AllreduceFloat64(acc, mpi.OpSum, mpi.CommWorld) / float64(r.NumRanks())
		r.ErrCheck(func() {
			flag := int64(0)
			if acc != acc { // NaN check
				flag = 1
			}
			if r.AllreduceInt64(flag, mpi.OpLor, mpi.CommWorld) != 0 {
				r.Abort("toy: NaN")
			}
		})
	}

	r.SetPhase(mpi.PhaseEnd)
	total := r.ReduceFloat64s([]float64{acc}, mpi.OpSum, 0, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(total[0])
	}
	return nil
}

func toyEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	app := toyApp{}
	opts.RunTimeout = 10 * time.Second
	return New(app, app.DefaultConfig(), opts)
}

func TestProfileIsIdempotent(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	p1, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Profile should cache and reuse the first profile")
	}
}

func TestEnumeratePointsCompleteAndSorted(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	points, err := e.Points()
	if err != nil {
		t.Fatal(err)
	}
	// Sites per rank: bcast, barrier, allreduce (x3), errcheck allreduce
	// (x3), reduce = 4 sites, 1+1+3+3+1 = 9 invocations; 4 ranks = 36.
	if len(points) != 36 {
		t.Fatalf("points = %d, want 36", len(points))
	}
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Site > b.Site) {
			t.Fatal("points not sorted")
		}
	}
	// Features must be filled in.
	for _, p := range points {
		if p.NInv <= 0 || p.StackDepth <= 0 || p.NDiffStacks <= 0 {
			t.Fatalf("point %v missing features", p)
		}
	}
}

func TestSemanticPruneKeepsRootAndOneRepresentative(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	prof, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	points := enumeratePoints(prof)
	kept, red := SemanticPrune(prof, points)
	if red <= 0 {
		t.Fatalf("semantic reduction = %v", red)
	}
	// For the rooted Bcast/Reduce, rank 0 (root) and one non-root survive;
	// for non-rooted collectives a single rank survives.
	byType := map[mpi.CollType]map[int]bool{}
	for _, p := range kept {
		if byType[p.Type] == nil {
			byType[p.Type] = map[int]bool{}
		}
		byType[p.Type][p.Rank] = true
	}
	// Rank 0 roots the Bcast/Reduce, so its communication trace differs
	// from every other rank and it forms its own equivalence class; ranks
	// 1..n-1 are pattern-identical and collapse to one representative.
	// Every site therefore keeps exactly two ranks: 0 and the class
	// representative (rank 1).
	for typ, ranks := range byType {
		if len(ranks) != 2 || !ranks[0] || !ranks[1] {
			t.Errorf("%v ranks kept = %v, want {0, 1}", typ, ranks)
		}
	}
}

func TestSemanticPruneScalesWithRanks(t *testing.T) {
	// The reduction ratio must grow with the rank count, approaching the
	// paper's ~96-97% at 32 ranks.
	reductionAt := func(ranks int) float64 {
		app := toyApp{}
		cfg := app.DefaultConfig()
		cfg.Ranks = ranks
		e := New(app, cfg, DefaultOptions())
		prof, err := e.Profile()
		if err != nil {
			t.Fatal(err)
		}
		points := enumeratePoints(prof)
		_, red := SemanticPrune(prof, points)
		return red
	}
	r8, r32 := reductionAt(8), reductionAt(32)
	if r32 <= r8 {
		t.Fatalf("semantic reduction should grow with ranks: 8->%.2f 32->%.2f", r8, r32)
	}
	if r32 < 0.90 {
		t.Fatalf("semantic reduction at 32 ranks = %.2f, want >= 0.90", r32)
	}
}

func TestContextPruneKeepsOnePerStack(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	prof, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	points := enumeratePoints(prof)
	kept, red := ContextPrune(points)
	if red <= 0 {
		t.Fatalf("context reduction = %v", red)
	}
	// All three loop invocations of each allreduce site share a stack:
	// exactly one representative must survive per (rank, site, stack).
	seen := map[[3]uint64]int{}
	for _, p := range kept {
		key := [3]uint64{uint64(p.Rank), uint64(p.Site), p.StackHash}
		seen[key]++
		if seen[key] > 1 {
			t.Fatalf("duplicate stack representative: %v", p)
		}
	}
	// Representatives are the earliest invocation.
	for _, p := range kept {
		if p.Invocation != 0 {
			t.Fatalf("representative should be first invocation, got %v", p)
		}
	}
}

func TestPruningPipelineComposition(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	prof, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	points := enumeratePoints(prof)
	sem, _ := SemanticPrune(prof, points)
	ctx, _ := ContextPrune(sem)
	if len(ctx) == 0 || len(ctx) >= len(points) {
		t.Fatalf("pipeline: %d -> %d -> %d", len(points), len(sem), len(ctx))
	}
}

func TestInjectPointDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 5
	e := toyEngine(t, opts)
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	points, _ := e.Points()
	p := points[0]
	a := e.InjectPoint(p, 0, 10)
	b := e.InjectPoint(p, 0, 10)
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs: %v vs %v", i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestInjectPointTargetRestrictsParameter(t *testing.T) {
	e := toyEngine(t, DefaultOptions())
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	points, _ := e.Points()
	var ar Point
	found := false
	for _, p := range points {
		if p.Type == mpi.CollAllreduce {
			ar, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no allreduce point")
	}
	pr := e.InjectPointTarget(ar, 0, 8, fault.TargetRecvBuf)
	for _, tr := range pr.Trials {
		if tr.Target != fault.TargetRecvBuf {
			t.Fatalf("trial target = %v", tr.Target)
		}
	}
	// recvbuf faults are overwritten by the collective: all SUCCESS.
	if pr.Counts[classify.Success] != 8 {
		t.Fatalf("recvbuf faults should be benign: %v", pr.Counts)
	}
}

func TestRunCampaignAccounting(t *testing.T) {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 5
	opts.ML.Batch = 4
	e := toyEngine(t, opts)
	res, err := e.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPoints != 36 {
		t.Fatalf("total points = %d", res.TotalPoints)
	}
	if res.AfterSemantic >= res.TotalPoints || res.AfterContext > res.AfterSemantic {
		t.Fatalf("pruning accounting inconsistent: %+v", res)
	}
	if res.Injected+res.PredictedN != res.AfterContext {
		t.Fatalf("injected %d + predicted %d != pruned %d", res.Injected, res.PredictedN, res.AfterContext)
	}
	if res.TotalReduction <= 0 || res.TotalReduction >= 1 {
		t.Fatalf("total reduction = %v", res.TotalReduction)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
	for _, pr := range res.Measured {
		if len(pr.Trials) != 5 || pr.Counts.Total() != 5 {
			t.Fatalf("trial bookkeeping wrong: %+v", pr.Counts)
		}
	}
}

// learnLoopOptions makes the learn loop's stopping decision reachable on the
// toy app: small batches over the whole, unpruned space.
func learnLoopOptions(threshold float64) Options {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 3
	opts.ML.Batch = 3
	opts.ML.MinTrain = 3
	opts.Pruning = Pruning{}
	opts.AccuracyThreshold = threshold
	return opts
}

func TestLearnLoopThresholdBehaviour(t *testing.T) {
	// With a near-zero threshold the model is "accurate" after the first
	// verification batch, so later points are predicted, not injected.
	res, err := toyEngine(t, learnLoopOptions(0.01)).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) == 0 {
		t.Fatalf("low threshold should leave predicted points (measured %d of %d)", len(res.Measured), res.TotalPoints)
	}
	if res.MLReduction <= 0 {
		t.Fatalf("reduction = %v", res.MLReduction)
	}
	// An unreachable threshold must exhaust the points.
	res2, err := toyEngine(t, learnLoopOptions(1.1)).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Predicted) != 0 {
		t.Fatalf("unreachable threshold should exhaust points: predicted=%d", len(res2.Predicted))
	}
	if len(res2.Measured) != res2.TotalPoints {
		t.Fatalf("exhaustion should measure everything: %d of %d", len(res2.Measured), res2.TotalPoints)
	}
}

// TestInjectSeamReplaysMeasurements is the Fig. 6 arrangement: the learn
// loop runs under several thresholds on one observer, every injection
// answered through SupervisorOptions.Inject. The seam is asked exactly once
// per measured point, and each replay is a campaign of its own on the
// stream: no point event falls outside a CampaignStarted/CampaignFinished
// pair.
func TestInjectSeamReplaysMeasurements(t *testing.T) {
	rec := &eventRecorder{}
	for _, th := range []float64{0.01, 1.1} {
		opts := learnLoopOptions(th)
		opts.Observer = rec
		calls := 0
		sup, err := NewSupervisor(toyEngine(t, opts), SupervisorOptions{Workers: 1,
			Inject: func(_ context.Context, p Point, _, _ int) (PointResult, error) {
				calls++
				pr := PointResult{Point: p, Trials: []TrialResult{{Outcome: classify.Success}}}
				pr.Counts.Add(classify.Success)
				return pr, nil
			}}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(sup.Measured) {
			t.Fatalf("threshold %v: inject function called %d times for %d measured", th, calls, len(sup.Measured))
		}
	}
	// Cut the stream at every CampaignFinished: each piece must be one
	// well-ordered campaign, so no event — a point event least of all —
	// falls between a finish and the next start.
	campaigns := 0
	var piece []Event
	for _, ev := range rec.all() {
		piece = append(piece, ev)
		if _, ok := ev.(CampaignFinished); ok {
			assertWellOrdered(t, piece)
			campaigns, piece = campaigns+1, nil
		}
	}
	if campaigns != 2 || len(piece) != 0 {
		t.Fatalf("stream holds %d finished campaigns and %d trailing events, want 2 and 0", campaigns, len(piece))
	}
}

func TestFeatureVectors(t *testing.T) {
	p := Point{
		Type: mpi.CollAllreduce, Phase: mpi.PhaseCompute, ErrHandling: true,
		NInv: 7, StackDepth: 3, NDiffStacks: 2,
	}
	fv := p.FeatureVector()
	if len(fv) != len(FeatureNames) {
		t.Fatalf("feature vector length %d", len(fv))
	}
	if fv[2] != 1 || fv[3] != 7 || fv[4] != 3 || fv[5] != 2 {
		t.Fatalf("feature vector = %v", fv)
	}
	ev := p.ExpandedFeatureVector()
	if len(ev) != len(ExpandedFeatureNames) {
		t.Fatalf("expanded vector length %d", len(ev))
	}
	if ev[2] != 1 { // compute-phase indicator
		t.Fatalf("compute indicator missing: %v", ev)
	}
	if ev[4] != 1 || ev[5] != 0 { // errhdl / non-errhdl
		t.Fatalf("errhdl indicators wrong: %v", ev)
	}
	p.ErrHandling = false
	ev2 := p.ExpandedFeatureVector()
	if ev2[4] != 0 || ev2[5] != 1 {
		t.Fatalf("non-errhdl indicators wrong: %v", ev2)
	}
}

func TestPointResultHelpers(t *testing.T) {
	pr := PointResult{Point: Point{Type: mpi.CollAllreduce}}
	add := func(target fault.Target, o classify.Outcome, n int) {
		for i := 0; i < n; i++ {
			pr.Trials = append(pr.Trials, TrialResult{Target: target, Outcome: o})
			pr.Counts.Add(o)
		}
	}
	add(fault.TargetSendBuf, classify.Success, 6)
	add(fault.TargetCount, classify.SegFault, 3)
	add(fault.TargetOp, classify.MPIErr, 1)
	if got := pr.ErrorRate(); got != 0.4 {
		t.Fatalf("error rate = %v", got)
	}
	if got := pr.MajorityOutcome(); got != classify.Success {
		t.Fatalf("majority = %v", got)
	}
	byT := pr.CountsByTarget()
	if byT[fault.TargetCount][classify.SegFault] != 3 {
		t.Fatalf("per-target counts wrong: %v", byT)
	}
}

func TestReportAggregations(t *testing.T) {
	mk := func(typ mpi.CollType, errHdl bool, outcomes ...classify.Outcome) PointResult {
		pr := PointResult{Point: Point{Type: typ, ErrHandling: errHdl}}
		for i, o := range outcomes {
			pr.Trials = append(pr.Trials, TrialResult{Target: fault.Target(i % 3), Outcome: o})
			pr.Counts.Add(o)
		}
		return pr
	}
	measured := []PointResult{
		mk(mpi.CollAllreduce, false, classify.Success, classify.Success, classify.SegFault),
		mk(mpi.CollBarrier, false, classify.SegFault, classify.SegFault, classify.SegFault),
		mk(mpi.CollBcast, true, classify.AppDetected, classify.Success, classify.Success),
	}
	agg := OutcomeBreakdown(measured)
	if agg.Total() != 9 || agg[classify.SegFault] != 4 {
		t.Fatalf("breakdown = %v", agg)
	}
	byColl := OutcomeByCollective(measured)
	barrierCounts := byColl[mpi.CollBarrier]
	if barrierCounts.ErrorRate() != 1 {
		t.Fatalf("barrier error rate = %v", barrierCounts.ErrorRate())
	}
	levels := LevelsByCollective(measured)
	if levels[mpi.CollBarrier][2] != 1 { // high band
		t.Fatalf("barrier level = %v", levels[mpi.CollBarrier])
	}
	if levels[mpi.CollAllreduce][1] != 1 { // 1/3 error = med band
		t.Fatalf("allreduce level = %v", levels[mpi.CollAllreduce])
	}
	corr := CorrelationTable(measured, 3)
	if len(corr) != len(ExpandedFeatureNames) {
		t.Fatalf("correlation table size = %d", len(corr))
	}
	for name, v := range corr {
		if v < 0 || v > 1 {
			t.Fatalf("correlation %s = %v outside [0,1]", name, v)
		}
	}
}

func TestSortedHelpers(t *testing.T) {
	m := map[mpi.CollType]int{mpi.CollBarrier: 1, mpi.CollAllreduce: 2, mpi.CollBcast: 3}
	keys := SortedCollTypes(m)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("coll types not sorted")
		}
	}
}

func TestProfileFailsOnBrokenApp(t *testing.T) {
	e := New(brokenApp{}, apps.Config{Ranks: 2, Seed: 1}, DefaultOptions())
	if _, err := e.Profile(); err == nil {
		t.Fatal("profiling a failing app should error")
	}
}

type brokenApp struct{}

func (brokenApp) Name() string               { return "broken" }
func (brokenApp) DefaultConfig() apps.Config { return apps.Config{Ranks: 2, Seed: 1} }
func (brokenApp) Main(r *mpi.Rank, cfg apps.Config) error {
	r.Abort("always fails")
	return nil
}

func TestCampaignIsReproducible(t *testing.T) {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 4
	run := func() *CampaignResult {
		e := toyEngine(t, opts)
		res, err := e.RunCampaign()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries differ:\n%s\n%s", a.Summary(), b.Summary())
	}
	if len(a.Measured) != len(b.Measured) {
		t.Fatalf("measured counts differ")
	}
	for i := range a.Measured {
		if a.Measured[i].Counts != b.Measured[i].Counts {
			t.Fatalf("point %d outcomes differ: %v vs %v", i,
				a.Measured[i].Counts, b.Measured[i].Counts)
		}
		for j := range a.Measured[i].Trials {
			if a.Measured[i].Trials[j] != b.Measured[i].Trials[j] {
				t.Fatalf("trial %d/%d differs", i, j)
			}
		}
	}
}

func TestCampaignPersistenceIntegration(t *testing.T) {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 3
	e := toyEngine(t, opts)
	res, err := e.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/campaign.json"
	if err := res.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCampaignJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every analysis must agree between live and reloaded campaigns.
	if OutcomeBreakdown(got.Measured) != OutcomeBreakdown(res.Measured) {
		t.Fatal("outcome breakdown differs after reload")
	}
	liveCorr := CorrelationTable(res.Measured, 4)
	loadCorr := CorrelationTable(got.Measured, 4)
	for k, v := range liveCorr {
		if loadCorr[k] != v {
			t.Fatalf("correlation %s differs: %v vs %v", k, v, loadCorr[k])
		}
	}
	liveAdv := RenderAdvice(Advise(res.Measured, AdviceThresholds{}))
	loadAdv := RenderAdvice(Advise(got.Measured, AdviceThresholds{}))
	if liveAdv != loadAdv {
		t.Fatal("advice differs after reload")
	}
}
