package fastfit_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, measuring the cost of the operation each experiment
// is built from, plus ablation benchmarks for the design choices called out
// in DESIGN.md and microbenchmarks of the simulated MPI substrate.
//
// Regenerate the full experiments with:
//
//	go run ./cmd/ffexp -run all            # quick scale
//	go run ./cmd/ffexp -run all -scale paper
//
// Run the benches with:
//
//	go test -bench=. -benchmem

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/fastfit/fastfit"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/ml"
	"github.com/fastfit/fastfit/internal/mpi"
)

// benchEngine builds a micro-scale engine for a workload; campaigns at
// bench scale complete in milliseconds so the per-injection cost dominates.
func benchEngine(b *testing.B, name string, policy fastfit.FaultPolicy) *fastfit.Engine {
	b.Helper()
	app, err := fastfit.LookupApp(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	switch name {
	case "ft":
		cfg.Scale = 8
	case "mg":
		cfg.Scale = 16
	case "lu":
		cfg.Scale = 32
	case "is":
		cfg.Scale = 128
	case "minimd":
		cfg.Scale = 12
		cfg.Iters = 4
	}
	opts := fastfit.DefaultOptions()
	opts.Policy = policy
	opts.RunTimeout = 10 * time.Second
	e := fastfit.New(app, cfg, opts)
	if _, err := e.Profile(); err != nil {
		b.Fatal(err)
	}
	return e
}

func prunedPoints(b *testing.B, e *fastfit.Engine) []fastfit.Point {
	b.Helper()
	prof, err := e.Profile()
	if err != nil {
		b.Fatal(err)
	}
	points, err := e.Points()
	if err != nil {
		b.Fatal(err)
	}
	points, _ = core.SemanticPrune(prof, points)
	points, _ = core.ContextPrune(points)
	return points
}

// injectN runs b.N single-fault injection tests round-robin over points.
func injectN(b *testing.B, e *fastfit.Engine, points []fastfit.Point, target *fastfit.Target) {
	b.Helper()
	if len(points) == 0 {
		b.Fatal("no points")
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		var f fastfit.Fault
		if target != nil {
			f = fault.RandomFaultOn(rng, p.Rank, p.Site, p.Invocation, *target)
		} else {
			f = fault.DataBufferFault(rng, p.Rank, p.Site, p.Invocation, p.Type)
		}
		e.RunOnce(f)
	}
}

// ---- Table I: response taxonomy (classification cost) ----

func BenchmarkTable1Classification(b *testing.B) {
	golden := mpi.RunResult{Ranks: []mpi.RankResult{{Values: []float64{1, 2, 3}}, {Values: []float64{4}}}}
	runs := []mpi.RunResult{
		golden,
		{Ranks: []mpi.RankResult{{Values: []float64{1, 2, 3.5}}, {Values: []float64{4}}}},
		{Ranks: []mpi.RankResult{{Err: mpi.SegFault{Op: "x"}}, {Values: []float64{4}}}},
		{Deadlock: true, Ranks: []mpi.RankResult{{}, {}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.Classify(golden, runs[i%len(runs)])
	}
}

// ---- Table II: env-var configuration ----

func BenchmarkTable2ConfigParse(b *testing.B) {
	env := map[string]string{"NUM_INJ": "100", "INV_ID": "3", "CALL_ID": "2", "RANK_ID": "7", "PARAM_ID": "1"}
	getenv := func(k string) string { return env[k] }
	for i := 0; i < b.N; i++ {
		if _, err := fault.ParseConfig(getenv); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table III: the pruning pipeline ----

func BenchmarkTable3PruningPipeline(b *testing.B) {
	e := benchEngine(b, "is", fastfit.PolicyAllParams)
	prof, _ := e.Profile()
	points, _ := e.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem, _ := core.SemanticPrune(prof, points)
		core.ContextPrune(sem)
	}
}

// ---- Table IV: feature correlation ----

func BenchmarkTable4Correlation(b *testing.B) {
	measured := syntheticMeasured(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CorrelationTable(measured, 4)
	}
}

// ---- Fig 1/2: per-parameter injections on equivalent / role ranks ----

func BenchmarkFig1EquivalentRankInjection(b *testing.B) {
	e := benchEngine(b, "lu", fastfit.PolicyAllParams)
	points := prunedPoints(b, e)
	var ar []fastfit.Point
	for _, p := range points {
		if p.Type == mpi.CollAllreduce {
			ar = append(ar, p)
		}
	}
	target := fastfit.TargetSendBuf
	injectN(b, e, ar, &target)
}

func BenchmarkFig2RootNonRootInjection(b *testing.B) {
	e := benchEngine(b, "ft", fastfit.PolicyAllParams)
	points := prunedPoints(b, e)
	var red []fastfit.Point
	for _, p := range points {
		if p.Type == mpi.CollReduce {
			red = append(red, p)
		}
	}
	target := fastfit.TargetRecvBuf
	injectN(b, e, red, &target)
}

// ---- Fig 3: same-stack invocation injection ----

func BenchmarkFig3SameStackInjection(b *testing.B) {
	e := benchEngine(b, "minimd", fastfit.PolicyDataBuffer)
	points := prunedPoints(b, e)
	var ar []fastfit.Point
	for _, p := range points {
		if p.Type == mpi.CollAllreduce && p.Phase == mpi.PhaseCompute {
			ar = append(ar, p)
		}
	}
	injectN(b, e, ar, nil)
}

// ---- Fig 4: decision-tree training ----

func BenchmarkFig4TreeTraining(b *testing.B) {
	ds := core.BuildLevelDataset(syntheticMeasured(200), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.BuildTree(ds, ml.TreeConfig{MaxDepth: 8}, nil)
	}
}

// ---- Fig 5: the profiling phase (architecture front end) ----

func BenchmarkFig5ProfilingRun(b *testing.B) {
	app, _ := fastfit.LookupApp("is")
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 128
	opts := fastfit.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := fastfit.New(app, cfg, opts)
		if _, err := e.Profile(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 6: threshold sweep over a cached campaign ----

func BenchmarkFig6ThresholdReplay(b *testing.B) {
	measured := syntheticMeasured(64)
	points := make([]fastfit.Point, len(measured))
	cache := map[uintptr]fastfit.PointResult{}
	for i, pr := range measured {
		points[i] = pr.Point
		cache[pr.Point.Site] = pr
	}
	app, _ := fastfit.LookupApp("minimd")
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	opts := fastfit.DefaultOptions()
	opts.AccuracyThreshold = 0.65
	e := fastfit.New(app, cfg, opts)
	lookup := func(p fastfit.Point, _ int) fastfit.PointResult { return cache[p.Site] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LearnCampaignWith(points, lookup)
	}
}

// ---- Fig 7/8: NPB sensitivity campaigns (per-injection cost) ----

func BenchmarkFig7NPBInjectionIS(b *testing.B) {
	e := benchEngine(b, "is", fastfit.PolicyAllParams)
	injectN(b, e, prunedPoints(b, e), nil)
}

func BenchmarkFig7NPBInjectionFT(b *testing.B) {
	e := benchEngine(b, "ft", fastfit.PolicyAllParams)
	injectN(b, e, prunedPoints(b, e), nil)
}

func BenchmarkFig8NPBInjectionMG(b *testing.B) {
	e := benchEngine(b, "mg", fastfit.PolicyAllParams)
	injectN(b, e, prunedPoints(b, e), nil)
}

func BenchmarkFig8NPBInjectionLU(b *testing.B) {
	e := benchEngine(b, "lu", fastfit.PolicyAllParams)
	injectN(b, e, prunedPoints(b, e), nil)
}

// ---- Fig 9: per-parameter study ----

func BenchmarkFig9PerParameterInjection(b *testing.B) {
	e := benchEngine(b, "is", fastfit.PolicyAllParams)
	points := prunedPoints(b, e)
	var ar []fastfit.Point
	for _, p := range points {
		if p.Type == mpi.CollAllreduce {
			ar = append(ar, p)
		}
	}
	targets := fault.TargetsFor(mpi.CollAllreduce)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ar[i%len(ar)]
		target := targets[i%len(targets)]
		f := fault.RandomFaultOn(rng, p.Rank, p.Site, p.Invocation, target)
		e.RunOnce(f)
	}
}

// ---- Fig 10/11: LAMMPS (miniMD) sensitivity campaign ----

func BenchmarkFig10MiniMDInjection(b *testing.B) {
	e := benchEngine(b, "minimd", fastfit.PolicyDataBuffer)
	injectN(b, e, prunedPoints(b, e), nil)
}

func BenchmarkFig11MiniMDLevels(b *testing.B) {
	measured := syntheticMeasured(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LevelsByCollective(measured)
	}
}

// ---- Fig 12/13: forest training + prediction accuracy ----

func BenchmarkFig12TypePrediction(b *testing.B) {
	ds := core.BuildTypeDataset(syntheticMeasured(200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.TrainForest(ds, ml.ForestConfig{Trees: 20, Seed: int64(i)})
		f.PerClassRecall(ds)
	}
}

func BenchmarkFig13LevelPrediction(b *testing.B) {
	ds := core.BuildLevelDataset(syntheticMeasured(200), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.TrainForest(ds, ml.ForestConfig{Trees: 20, Seed: int64(i)})
		f.Accuracy(ds)
	}
}

// ---- Ablations: each pruning technique on its own ----

func benchCampaign(b *testing.B, semantic, context, mlPrune bool) {
	app, _ := fastfit.LookupApp("is")
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 64
	cfg.Iters = 2
	opts := fastfit.DefaultOptions()
	opts.TrialsPerPoint = 2
	opts.Pruning.Semantic = semantic
	opts.Pruning.Context = context
	opts.ML.Pruning = mlPrune
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		e := fastfit.New(app, cfg, opts)
		if _, err := e.RunCampaign(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoPruning(b *testing.B)       { benchCampaign(b, false, false, false) }
func BenchmarkAblationSemanticOnly(b *testing.B)    { benchCampaign(b, true, false, false) }
func BenchmarkAblationContextOnly(b *testing.B)     { benchCampaign(b, false, true, false) }
func BenchmarkAblationSemanticContext(b *testing.B) { benchCampaign(b, true, true, false) }
func BenchmarkAblationFullFastFIT(b *testing.B)     { benchCampaign(b, true, true, true) }

// ---- substrate microbenchmarks ----

func benchCollective(b *testing.B, fn func(r *fastfit.Rank)) {
	b.Helper()
	res := fastfit.RunRanks(fastfit.RunOptions{NumRanks: 8, Seed: 1, Timeout: 5 * time.Minute, WorkBudget: -1},
		func(r *fastfit.Rank) error {
			for i := 0; i < b.N; i++ {
				fn(r)
			}
			return nil
		})
	if err := res.FirstError(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSubstrateBarrier(b *testing.B) {
	benchCollective(b, func(r *fastfit.Rank) { r.Barrier(fastfit.CommWorld) })
}

func BenchmarkSubstrateAllreduce8(b *testing.B) {
	vals := make([]float64, 8)
	benchCollective(b, func(r *fastfit.Rank) { r.AllreduceFloat64s(vals, fastfit.OpSum, fastfit.CommWorld) })
}

func BenchmarkSubstrateBcast1K(b *testing.B) {
	benchCollective(b, func(r *fastfit.Rank) {
		buf := fastfit.FromFloat64s(make([]float64, 128))
		r.Bcast(buf, 128, fastfit.Float64, 0, fastfit.CommWorld)
	})
}

func BenchmarkSubstrateAlltoall(b *testing.B) {
	benchCollective(b, func(r *fastfit.Rank) {
		send := fastfit.FromFloat64s(make([]float64, 64))
		recv := fastfit.NewFloat64Buffer(64)
		r.Alltoall(send, recv, 8, fastfit.Float64, fastfit.CommWorld)
	})
}

// BenchmarkSubstrateHaloExchange is the halo codes' inner step at mg's
// paper-scale shape: 32 ranks in a periodic ring, each sending one 32 KB
// plane (64 x 64 float64) both ways and receiving its neighbours' planes
// into buffers it keeps. One op is one exchange on every rank: 64 messages.
// The timer starts once every rank holds its buffers, so allocs/op is the
// steady state the alloc-budget test pins at zero.
func BenchmarkSubstrateHaloExchange(b *testing.B) {
	const ranks, plane = 32, 64 * 64
	b.ReportAllocs()
	b.SetBytes(2 * ranks * plane * 8)
	res := fastfit.RunRanks(fastfit.RunOptions{NumRanks: ranks, Seed: 1, Timeout: 5 * time.Minute, WorkBudget: -1},
		func(r *fastfit.Rank) error {
			up, down := (r.ID()+1)%ranks, (r.ID()+ranks-1)%ranks
			u := make([]float64, plane)
			below, above := make([]float64, plane), make([]float64, plane)
			r.Barrier(fastfit.CommWorld)
			if r.ID() == 0 {
				b.ResetTimer()
			}
			r.Barrier(fastfit.CommWorld)
			for i := 0; i < b.N; i++ {
				r.SendFloat64s(fastfit.CommWorld, up, 21, u)
				r.SendFloat64s(fastfit.CommWorld, down, 22, u)
				below = r.RecvFloat64sInto(fastfit.CommWorld, down, 21, below)
				above = r.RecvFloat64sInto(fastfit.CommWorld, up, 22, above)
			}
			return nil
		})
	if err := res.FirstError(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSubstrateWorldSpawn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fastfit.RunRanks(fastfit.RunOptions{NumRanks: 8, Seed: 1}, func(r *fastfit.Rank) error {
			return nil
		})
	}
}

// syntheticMeasured fabricates a measured point set with plausible feature
// and outcome structure for the analysis benchmarks.
func syntheticMeasured(n int) []fastfit.PointResult {
	rng := rand.New(rand.NewSource(99))
	types := []mpi.CollType{mpi.CollAllreduce, mpi.CollBcast, mpi.CollBarrier, mpi.CollAlltoall}
	out := make([]fastfit.PointResult, 0, n)
	for i := 0; i < n; i++ {
		p := fastfit.Point{
			Rank:        rng.Intn(8),
			Site:        uintptr(0x1000 + i),
			Type:        types[rng.Intn(len(types))],
			Phase:       mpi.Phase(rng.Intn(4)),
			ErrHandling: rng.Intn(3) == 0,
			NInv:        1 + rng.Intn(20),
			StackDepth:  1 + rng.Intn(6),
			NDiffStacks: 1 + rng.Intn(3),
		}
		pr := fastfit.PointResult{Point: p}
		trials := 10
		errRate := rng.Float64()
		if p.ErrHandling {
			errRate = 0.3 + 0.7*rng.Float64()
		}
		for tIdx := 0; tIdx < trials; tIdx++ {
			o := classify.Success
			if rng.Float64() < errRate {
				o = classify.Outcome(1 + rng.Intn(int(classify.NumOutcomes)-1))
			}
			pr.Trials = append(pr.Trials, fastfit.TrialResult{Target: fault.Target(rng.Intn(int(fault.NumTargets))), Outcome: o})
			pr.Counts.Add(o)
		}
		out = append(out, pr)
	}
	return out
}

// ---- campaign hot-path benchmarks (the buffer arena + golden digest) ----

// benchPaperTrial measures one injected trial at paper scale: LU on 32
// ranks, drawing the fault the way the paper's per-parameter sensitivity
// campaign does (PolicyAllParams, the Fig. 9 study): every call parameter
// — data buffers, counts, datatypes, roots, ops — is a corruption target,
// via the same fault.RandomFault draw the engine's own trial loop uses
// under that policy. This is the operation a campaign executes tens of
// thousands of times; the committed baselines in BENCH_alloc.json and
// BENCH_fork.json and the CI benchstat gate watch its time/op and
// allocs/op.
//
// With forking enabled (the default), tape recording and snapshot cutting
// are one-time costs a campaign amortises over its whole trial budget, so
// they are paid outside the timer: the warm-up pass below visits the same
// point sequence the timed loop will.
//
// Points are visited with a stride rotation rather than in order: the
// point list is sorted by site, so consecutive points share a shallow
// prefix, and a short -benchtime run over points[i%len] would only ever
// measure early-phase faults. A stride coprime to the list length cycles
// through all of it, sampling every injection depth the way a campaign
// does.
// benchPointStride is prime and larger than any per-depth cluster in the
// LU point list, so successive benchmark iterations land at well-spread
// injection depths (coprime to the 480-point paper-scale list).
const benchPointStride = 167

// benchPaperEngines caches one profiled engine per configuration for the
// life of the benchmark process. A campaign runs tens of thousands of
// trials against a single long-lived engine, so the steady state this
// cache produces — warm fork snapshots, mature heap — is the state the
// benchmark is meant to measure; rebuilding the engine per -count run
// instead measures a cold-start transient no campaign ever sees.
var benchPaperEngines = map[benchPaperKey]*fastfit.Engine{}

type benchPaperKey struct {
	app                         string
	disablePooling, disableFork bool
}

func benchPaperEngine(b *testing.B, name string, disablePooling, disableFork bool) (*fastfit.Engine, []fastfit.Point) {
	b.Helper()
	key := benchPaperKey{name, disablePooling, disableFork}
	if e := benchPaperEngines[key]; e != nil {
		points, err := e.Points()
		if err != nil {
			b.Fatal(err)
		}
		return e, points
	}
	app, err := fastfit.LookupApp(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 32
	cfg.Scale = 64
	opts := fastfit.DefaultOptions()
	opts.RunTimeout = 30 * time.Second
	opts.DisablePooling = disablePooling
	opts.Fork.Disable = disableFork
	e := fastfit.New(app, cfg, opts)
	if _, err := e.Profile(); err != nil {
		b.Fatal(err)
	}
	points, err := e.Points()
	if err != nil {
		b.Fatal(err)
	}
	// One warm sweep over every point: populates the fork snapshot cache
	// (with forking on) and brings arena pools and the heap to campaign
	// steady state before anything is timed.
	wrng := rand.New(rand.NewSource(1))
	for _, p := range points {
		e.RunOnce(fault.RandomFault(wrng, p.Rank, p.Site, p.Invocation, p.Type))
	}
	benchPaperEngines[key] = e
	return e, points
}

func benchPaperTrial(b *testing.B, name string, disablePooling, disableFork bool) {
	b.Helper()
	e, points := benchPaperEngine(b, name, disablePooling, disableFork)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[(i*benchPointStride)%len(points)]
		f := fault.RandomFault(rng, p.Rank, p.Site, p.Invocation, p.Type)
		e.RunOnce(f)
	}
}

// The fork/replay pair isolates the fork-at-injection-site win at fixed
// pooling; the pool/nopool pair isolates the buffer arena at fixed (full
// replay) execution, keeping its delta comparable across baselines.
func BenchmarkPaperTrialLU32(b *testing.B)       { benchPaperTrial(b, "lu", false, false) }
func BenchmarkPaperTrialLU32NoFork(b *testing.B) { benchPaperTrial(b, "lu", false, true) }
func BenchmarkPaperTrialLU32NoPool(b *testing.B) { benchPaperTrial(b, "lu", true, true) }

// BenchmarkPaperTrialMG32 is the same trial on the halo-exchange-bound
// kernel (mg, 64^3 on 32 ranks: 32 KB planes, forked, pooled): its B/op and
// allocs/op are what the typed point-to-point path and the applications'
// halo scratch keep down.
func BenchmarkPaperTrialMG32(b *testing.B) { benchPaperTrial(b, "mg", false, false) }

// BenchmarkGoldenDigestClassify isolates the per-trial classification cost
// against a precomputed digest versus the full golden comparison.
func BenchmarkGoldenDigestClassify(b *testing.B) {
	golden := syntheticRunResult(32, 64)
	res := syntheticRunResult(32, 64)
	d := classify.NewDigest(golden, classify.DefaultTolerance)
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Classify(res)
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			classify.Classify(golden, res)
		}
	})
}

func syntheticRunResult(ranks, vals int) mpi.RunResult {
	rng := rand.New(rand.NewSource(7))
	res := mpi.RunResult{Ranks: make([]mpi.RankResult, ranks)}
	for i := range res.Ranks {
		v := make([]float64, vals)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		res.Ranks[i] = mpi.RankResult{Rank: i, Values: v}
	}
	return res
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
