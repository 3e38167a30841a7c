package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/ml"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/recfile"
	"github.com/fastfit/fastfit/internal/sense"
	"github.com/fastfit/fastfit/internal/stats"
)

// The layer probes. Each times public calls into one layer, on the
// workload's own application, rank count and options, after the measured
// loop and in the same process (pools, heap and snapshot cache are warm).
// None reaches inside a package: a probe is valid for as long as the public
// API it calls exists.

// pointStride rotates trial probes over the plan's points the way the
// root package's BenchmarkPaperTrialLU32 does; it is coprime with every
// workload's point count.
const pointStride = 167

// prober carries what the probes share.
type prober struct {
	w     *workload
	tmp   string
	refs  []sample // the run's reference campaigns
	smoke bool
	ctx   context.Context

	eng    *core.Engine         // the first seed's reference engine: profiled, snapshots warm
	ref    *core.CampaignResult // its result
	seed   int64
	canned core.PointResult // a real measured point, for seams that want a result

	m        map[string]float64
	samples  map[string]int
	notes    []string
	timeouts int // probe runs the wall-clock timeout ended
}

// sized returns a sampler of at most n samples within budget; -smoke runs
// shrink both so the tier-1 test stays short.
func (p *prober) sized(n int, budget time.Duration) sampler {
	if p.smoke {
		if n > 5 {
			n = 5
		}
		budget = 20 * time.Millisecond
	}
	return sampler{maxSamples: n, budget: budget}
}

// ops is an iteration count for perOp, shrunk under -smoke.
func (p *prober) ops(n int) int {
	if p.smoke {
		return n/100 + 1
	}
	return n
}

// set records a metric as the median of its samples.
func (p *prober) set(name string, vs []float64) {
	p.m[name] = median(vs)
	p.samples[name] = len(vs)
}

func (p *prober) notef(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

func (p *prober) watch(res mpi.RunResult) mpi.RunResult {
	if res.TimedOut {
		p.timeouts++
	}
	return res
}

func (p *prober) run() error {
	for _, probe := range []func() error{
		p.mpiLayer, p.faultLayer, p.profileAndPlan, p.classifyLayer, p.trials,
		p.supervisor, p.checkpoint, p.persist, p.learning, p.distLayer, p.recfileLayer, p.senseLayer,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	p.m["mpi.timeout_runs"] = float64(p.timeouts)
	return nil
}

// ---- internal/mpi ----

func (p *prober) mpiLayer() error {
	ranks := p.w.ranks
	opts := mpi.RunOptions{NumRanks: ranks, Seed: p.seed, Timeout: time.Minute, WorkBudget: -1}
	spawn, _ := p.sized(200, 500*time.Millisecond).run(time.Microsecond, func() error {
		p.watch(mpi.Run(opts, func(*mpi.Rank) error { return nil }))
		return nil
	})
	p.set("mpi.spawn_us", spawn)

	// One Run holding n back-to-back calls, the empty Run's cost subtracted.
	n := p.ops(1000)
	inRun := func(name string, body func(r *mpi.Rank)) error {
		t0 := time.Now()
		res := p.watch(mpi.Run(opts, func(r *mpi.Rank) error {
			for i := 0; i < n; i++ {
				body(r)
			}
			return nil
		}))
		if err := res.FirstError(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		p.m[name] = (elapsed(t0, time.Microsecond) - median(spawn)) / float64(n)
		p.samples[name] = n
		return nil
	}
	vals := make([]float64, 8)
	if err := inRun("mpi.allreduce_us", func(r *mpi.Rank) {
		r.AllreduceFloat64s(vals, mpi.OpSum, mpi.CommWorld)
	}); err != nil {
		return err
	}
	if err := inRun("mpi.alltoall_us", func(r *mpi.Rank) {
		send, recv := r.NewFloat64Buffer(8*ranks), r.NewFloat64Buffer(8*ranks)
		r.Alltoall(send, recv, 8, mpi.Float64, mpi.CommWorld)
		send.Release()
		recv.Release()
	}); err != nil {
		return err
	}
	if err := inRun("mpi.bcast_us", func(r *mpi.Rank) {
		buf := r.NewFloat64Buffer(128)
		r.Bcast(buf, 128, mpi.Float64, 0, mpi.CommWorld)
		buf.Release()
	}); err != nil {
		return err
	}
	payload := make([]byte, 64)
	if err := inRun("mpi.sendrecv_us", func(r *mpi.Rank) {
		r.Sendrecv(mpi.CommWorld, (r.ID()+1)%ranks, 0, payload, (r.ID()+ranks-1)%ranks, 0)
	}); err != nil {
		return err
	}

	// A run in which rank 0 receives from a peer that has already returned:
	// the quiescence detector must call it, and how long that takes says
	// whether exact quiescence or the wall-clock stuck window gave the verdict.
	missed := 0
	detect, _ := p.sized(100, 2*time.Second).run(time.Microsecond, func() error {
		res := p.watch(mpi.Run(mpi.RunOptions{NumRanks: ranks, Seed: p.seed}, func(r *mpi.Rank) error {
			if r.ID() == 0 {
				r.Recv(mpi.CommWorld, 1, 0)
			}
			return nil
		}))
		if !res.Deadlock {
			missed++
		}
		return nil
	})
	if missed > 0 {
		p.notef("mpi.deadlock_detect: %d of %d probe runs were not ended by the deadlock detector", missed, len(detect))
	}
	p.set("mpi.deadlock_detect_us_p50", detect)
	p.m["mpi.deadlock_detect_us_max"] = percentile(detect, 1)
	p.samples["mpi.deadlock_detect_us_max"] = len(detect)
	return nil
}

// ---- internal/fault (and the golden run it is measured against) ----

func (p *prober) faultLayer() error {
	app, cfg := p.eng.App(), p.eng.Config()
	main := func(r *mpi.Rank) error { return app.Main(r, cfg) }
	opts := mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Timeout: time.Minute}
	// A fault addressed to a rank that does not exist: the injector inspects
	// every collective call and never fires.
	never := fault.Fault{Rank: -1}
	timed := func(o mpi.RunOptions) float64 {
		t0 := time.Now()
		p.watch(mpi.Run(o, main))
		return elapsed(t0, time.Millisecond)
	}
	// The overhead is the median of paired differences, the pair's order
	// alternating, so drift and ordering effects cancel instead of adding up.
	var golden, extra []float64
	p.sized(40, time.Second).run(time.Millisecond, func() error {
		withHook := opts
		withHook.Hook = fault.NewInjector(nil, never)
		var g, h float64
		if len(golden)%2 == 0 {
			g, h = timed(opts), timed(withHook)
		} else {
			h, g = timed(withHook), timed(opts)
		}
		golden = append(golden, g)
		extra = append(extra, (h-g)*1000)
		return nil
	})
	p.set("mpi.golden_run_ms", golden)
	p.set("fault.hook_overhead_us", extra)

	pt := p.canned.Point
	rng := rand.New(rand.NewSource(p.seed))
	p.m["fault.random_fault_ns"] = perOp(p.ops(100000), func() {
		fault.RandomFault(rng, pt.Rank, pt.Site, pt.Invocation, pt.Type)
	})
	return nil
}

// ---- internal/profile, and core's planning on top of it ----

func (p *prober) profileAndPlan() error {
	prof, err := p.sized(5, 600*time.Millisecond).run(time.Millisecond, func() error {
		eng, err := p.w.engine(p.seed, nil)
		if err == nil {
			_, err = eng.Profile()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("probe profile: %w", err)
	}
	p.set("profile.profile_ms", prof)

	plan, err := p.sized(20, 300*time.Millisecond).run(time.Millisecond, func() error {
		_, err := p.eng.PlanInfo()
		return err
	})
	if err != nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	p.set("core.plan_ms", plan)
	return nil
}

// ---- internal/classify ----

func (p *prober) classifyLayer() error {
	golden := p.eng.Golden()
	digest := classify.NewDigest(golden, classify.DefaultTolerance)
	p.m["classify.digest_ns"] = perOp(p.ops(20000), func() { digest.Classify(golden) })
	p.m["classify.full_ns"] = perOp(p.ops(20000), func() { classify.Classify(golden, golden) })
	return nil
}

// ---- internal/core: one trial ----

// The trial probes replay the reference campaign's own recorded faults
// (recordedFault), which keeps them on the workload's real trial mix — and,
// the seed being screened, free of heavy trials.

func (p *prober) trials() error {
	measured := p.ref.Measured
	rotate := func(eng *core.Engine, s sampler) []float64 {
		i := 0
		ms, _ := s.run(time.Millisecond, func() error {
			pr := &measured[(i*pointStride)%len(measured)]
			_, res := eng.RunOnce(recordedFault(pr, i/len(measured)))
			p.watch(res)
			i++
			return nil
		})
		return ms
	}

	// Forked, snapshots warm: the reference campaign cut every snapshot.
	forked := rotate(p.eng, p.sized(400, 1500*time.Millisecond))
	p.set("core.trial_fork_ms_p50", forked)
	p.m["core.trial_fork_ms_p95"] = percentile(forked, 0.95)
	p.samples["core.trial_fork_ms_p95"] = len(forked)

	// Replayed from t=0: the fallback path's cost.
	noFork, err := p.w.engineWith(p.seed, nil, func(o *core.Options) { o.Fork.Disable = true })
	if err == nil {
		_, err = noFork.Profile()
	}
	if err != nil {
		return fmt.Errorf("probe replayed trial: %w", err)
	}
	p.set("core.trial_replay_ms_p50", rotate(noFork, p.sized(200, time.Second)))

	// Cold: the first trial at each point of an engine whose application
	// seed this process has not seen, so the shared snapshot cache has
	// nothing for it — snapshot build plus trial. The first call also
	// records the tape, so it is made before the clock starts.
	cold, err := p.w.engine(p.seed^0x5eed, nil)
	if err == nil {
		_, err = cold.Profile()
	}
	if err != nil {
		return fmt.Errorf("probe cold trial: %w", err)
	}
	cold.RunOnce(recordedFault(&measured[0], 0))
	i := 0
	first, _ := p.sized(len(measured)-1, time.Second).run(time.Millisecond, func() error {
		i++
		_, res := cold.RunOnce(recordedFault(&measured[i], 0))
		p.watch(res)
		return nil
	})
	p.set("core.trial_cold_ms_p50", first)
	return nil
}

// ---- internal/core: supervisor, journal, persistence, stream ----

// unprunedEngine is the workload's engine with every pruning technique and
// adaptive budgets off and one trial per point: the shape on which per-point
// overheads (supervisor, lease, journal, merge) are measured over the whole
// injection space.
func (p *prober) unprunedEngine(obs core.Observer) (*core.Engine, error) {
	eng, err := p.w.engineWith(p.seed, obs, func(o *core.Options) {
		o.Pruning.Semantic, o.Pruning.Context = false, false
		o.ML.Pruning = false
		o.Adaptive.Enabled = false
		o.TrialsPerPoint = 1
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Profile(); err != nil {
		return nil, err
	}
	return eng, nil
}

// cannedFor is the canned result re-addressed to a point and cut to n trials.
func (p *prober) cannedFor(pt core.Point, n int) core.PointResult {
	pr := core.PointResult{Point: pt}
	for i := 0; i < n; i++ {
		t := p.canned.Trials[i%len(p.canned.Trials)]
		pr.Trials = append(pr.Trials, t)
		pr.Counts.Add(t.Outcome)
	}
	return pr
}

func (p *prober) supervisor() error {
	// Supervisor.Run with the injection seam answering instantly: what is
	// left is scheduling, the watchdog, the record and the events of a point.
	var injecting time.Time
	eng, err := p.unprunedEngine(core.ObserverFunc(func(ev core.Event) {
		if ph, ok := ev.(core.PhaseChanged); ok && ph.Phase == core.CampaignInjecting {
			injecting = time.Now()
		}
	}))
	if err != nil {
		return fmt.Errorf("probe supervisor: %w", err)
	}
	reps := 5
	if p.smoke {
		reps = 1
	}
	var perPoint []float64
	for i := 0; i < reps; i++ {
		res, err := core.NewSupervisor(eng, core.SupervisorOptions{
			Workers: 1,
			Inject: func(_ context.Context, pt core.Point, _, trials int) (core.PointResult, error) {
				return p.cannedFor(pt, trials), nil
			},
		}).Run(p.ctx)
		if err != nil {
			return fmt.Errorf("probe supervisor: %w", err)
		}
		perPoint = append(perPoint, elapsed(injecting, time.Microsecond)/float64(len(res.Measured)))
	}
	p.set("core.supervisor_point_us", perPoint)

	// One whole campaign on one supervisor worker over one on two, both
	// warm, same seed: what the second core buys this workload.
	campaign := func(workers int) (float64, error) {
		eng, err := p.w.engine(p.seed, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := core.NewSupervisor(eng, core.SupervisorOptions{Workers: workers}).Run(p.ctx)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := res.CampaignResult.WriteJSON(&buf); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	one, err := campaign(1)
	if err != nil {
		return fmt.Errorf("probe workers speedup: %w", err)
	}
	two, err := campaign(pinnedWorkers)
	if err != nil {
		return fmt.Errorf("probe workers speedup: %w", err)
	}
	p.m["core.workers_speedup"] = one / two
	p.notef("core.workers_speedup = %.3f s on 1 worker / %.3f s on %d workers", one, two, pinnedWorkers)

	stream := core.NewStreamStats()
	ev := core.PointCompleted{Index: 0, Result: p.canned, Completed: 1, Total: len(p.ref.Measured)}
	p.m["core.stream_event_ns"] = perOp(p.ops(20000), func() { stream.OnEvent(ev) })
	return nil
}

func (p *prober) checkpoint() error {
	// 1,000 appends of a 100-trial record, then loads of that journal, on
	// the scratch root's filesystem.
	path := filepath.Join(p.tmp, "probe.ckpt")
	n := p.ops(1000)
	ck, err := core.CreateCheckpoint(path, "probe", p.eng.App().Name(), p.eng.Config().Ranks, n)
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	rec := p.cannedFor(p.canned.Point, 100)
	i := 0
	appends, err := sampler{maxSamples: n, budget: time.Minute}.run(time.Microsecond, func() error {
		i++
		return ck.AppendResult(i, rec, len(rec.Trials))
	})
	if cerr := ck.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	p.set("core.checkpoint_append_us", appends)
	loads, err := p.sized(3, time.Second).run(time.Millisecond, func() error {
		_, err := core.LoadCheckpointState(path, "probe")
		return err
	})
	if err != nil {
		return fmt.Errorf("probe checkpoint load: %w", err)
	}
	p.set("core.checkpoint_load_ms", loads)
	return os.Remove(path)
}

func (p *prober) persist() error {
	var buf bytes.Buffer
	writes, err := p.sized(20, 300*time.Millisecond).run(time.Millisecond, func() error {
		buf.Reset()
		return p.ref.WriteJSON(&buf)
	})
	if err != nil {
		return fmt.Errorf("probe campaign JSON: %w", err)
	}
	reads, err := p.sized(20, 300*time.Millisecond).run(time.Millisecond, func() error {
		_, err := core.ReadCampaignJSON(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return fmt.Errorf("probe campaign JSON: %w", err)
	}
	p.set("core.write_json_ms", writes)
	p.set("core.read_json_ms", reads)
	return nil
}

// ---- internal/ml, internal/stats ----

func (p *prober) learning() error {
	ds := core.BuildLevelDataset(p.ref.Measured, 4)
	var forest *ml.Forest
	train, _ := p.sized(10, 300*time.Millisecond).run(time.Millisecond, func() error {
		forest = ml.TrainForest(ds, ml.ForestConfig{Seed: p.seed})
		return nil
	})
	p.set("ml.train_ms", train)
	x := ds.X[0]
	p.m["ml.predict_us"] = perOp(p.ops(20000), func() { forest.Predict(x) }) / 1000

	// Streams of 60 observations, each on a fresh test: one point's life.
	const stream = 60
	p.m["stats.settle_observe_ns"] = perOp(p.ops(2000), func() {
		st := stats.NewSettleTest(int(classify.NumOutcomes), stats.SettleConfig{Confidence: 0.95, MinTrials: 12})
		for i := 0; i < stream; i++ {
			st.Observe(i % 3 / 2)
		}
	}) / stream
	return nil
}

// ---- internal/dist ----

func (p *prober) distLayer() error {
	// Drive a coordinator by hand, the way two shards would: lease a range,
	// journal it in batches of eight canned one-trial records, until the
	// record store is complete. With a Store every batch is appended to the
	// write-ahead log first; without one it is not: the difference is the WAL.
	type driven struct {
		coord   *dist.Coordinator
		records map[int]core.PointRecord
	}
	var leaseUS, batchUS, batchNoWALUS []float64
	drive := func(store string, batches *[]float64) (*driven, error) {
		eng, err := p.unprunedEngine(nil)
		if err != nil {
			return nil, err
		}
		points, err := eng.Points()
		if err != nil {
			return nil, err
		}
		coord, err := dist.NewCoordinator(eng, dist.CoordinatorOptions{LeaseSize: shardLeaseSize, Store: store})
		if err != nil {
			return nil, err
		}
		d := &driven{coord: coord, records: map[int]core.PointRecord{}}
		for {
			t0 := time.Now()
			grant, err := coord.Lease(dist.LeaseRequest{Worker: "probe"})
			if err != nil {
				return nil, err
			}
			if grant.Finished || grant.NoWork {
				return d, nil
			}
			leaseUS = append(leaseUS, elapsed(t0, time.Microsecond))
			for lo := grant.Lo; lo < grant.Hi; lo += shardBatchSize {
				hi := lo + shardBatchSize
				if hi > grant.Hi {
					hi = grant.Hi
				}
				recs := make([]core.PointRecord, 0, hi-lo)
				for idx := lo; idx < hi; idx++ {
					rec := core.PointRecord{Index: idx, Result: p.cannedFor(points[idx], 1), Base: 1}
					recs = append(recs, rec)
					d.records[idx] = rec
				}
				t0 := time.Now()
				_, err := coord.Journal(dist.JournalBatch{LeaseID: grant.LeaseID, Worker: "probe", Done: hi == grant.Hi}, recs, nil)
				if err != nil {
					return nil, err
				}
				*batches = append(*batches, elapsed(t0, time.Microsecond))
			}
		}
	}

	reps := 3
	if p.smoke {
		reps = 1
	}
	var recoverMS []float64
	for i := 0; i < reps; i++ {
		store := filepath.Join(p.tmp, fmt.Sprintf("probe-store-%d", i))
		if _, err := drive(store, &batchUS); err != nil {
			return fmt.Errorf("probe dist journal: %w", err)
		}
		// The driven coordinator is abandoned with its store complete but
		// unmerged — the state a crash leaves — and recovered from the log.
		// (It has no Close; its log handle lives until the process exits.)
		t0 := time.Now()
		rec, err := dist.RecoverCoordinator(store, all.Lookup, dist.CoordinatorOptions{LeaseSize: shardLeaseSize})
		if err != nil {
			return fmt.Errorf("probe dist recover: %w", err)
		}
		recoverMS = append(recoverMS, elapsed(t0, time.Millisecond))
		if _, err := rec.Result(p.ctx); err != nil { // merges, marks and closes the log
			return fmt.Errorf("probe dist recover: merging the recovered campaign: %w", err)
		}
	}
	mem, err := drive("", &batchNoWALUS)
	if err != nil {
		return fmt.Errorf("probe dist journal: %w", err)
	}
	p.set("dist.lease_us", leaseUS)
	p.set("dist.journal_batch_us", batchUS)
	p.set("dist.journal_batch_nowal_us", batchNoWALUS)
	p.set("dist.recover_ms", recoverMS)

	srv := httptest.NewServer(mem.coord.Handler())
	client := dist.NewClient(srv.URL, nil)
	rtt, err := p.sized(200, 300*time.Millisecond).run(time.Microsecond, func() error {
		_, err := client.Status(p.ctx)
		return err
	})
	srv.Close()
	if err != nil {
		return fmt.Errorf("probe dist status round trip: %w", err)
	}
	p.set("dist.http_rtt_us", rtt)

	eng, err := p.unprunedEngine(nil)
	if err != nil {
		return err
	}
	i := 0
	merges, err := p.sized(3, time.Second).run(time.Millisecond, func() error {
		i++
		journal := filepath.Join(p.tmp, fmt.Sprintf("probe-merge-%d.ckpt", i))
		defer os.Remove(journal)
		_, err := dist.Merge(p.ctx, eng, dist.MergeInput{Records: mem.records}, core.SupervisorOptions{Checkpoint: journal})
		return err
	})
	if err != nil {
		return fmt.Errorf("probe dist merge: %w", err)
	}
	p.set("dist.merge_ms", merges)
	return nil
}

// ---- internal/recfile ----

func (p *prober) recfileLayer() error {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KB
	var line []byte
	p.m["recfile.encode_ns"] = perOp(p.ops(20000), func() { line = recfile.EncodeLine(payload) })
	text := string(line[:len(line)-1])
	var err error
	p.m["recfile.parse_ns"] = perOp(p.ops(20000), func() { _, err = recfile.ParseLine(text) })
	return err
}

// ---- internal/sense ----

func (p *prober) senseLayer() error {
	// The store holds this run's reference campaigns plus one small campaign
	// of a second application, because Train refuses a single-app store.
	other := "is"
	if p.w.app == other {
		other = "lu"
	}
	second, err := (&workload{app: other, ranks: smokeRanks, options: func(o *core.Options) {
		p.w.options(o)
		o.ML.Pruning, o.Adaptive.Enabled = false, false
		o.TrialsPerPoint = 4
	}}).engine(p.seed, nil)
	if err != nil {
		return err
	}
	extra, err := core.NewSupervisor(second, core.SupervisorOptions{Workers: 1}).Run(p.ctx)
	if err != nil {
		return fmt.Errorf("probe sense: second-app campaign: %w", err)
	}
	campaigns := []*core.CampaignResult{extra.CampaignResult}
	for _, s := range p.refs {
		campaigns = append(campaigns, s.result)
	}

	dir := filepath.Join(p.tmp, "probe-sense")
	store, err := sense.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("probe sense: %w", err)
	}
	var adds []float64
	for _, c := range campaigns {
		recs := core.SenseRecords(c)
		t0 := time.Now()
		if _, err := store.AddCampaign(sense.Fingerprint(c.AppName, recs), recs); err != nil {
			store.Close()
			return fmt.Errorf("probe sense: %w", err)
		}
		adds = append(adds, elapsed(t0, time.Millisecond))
	}
	records := store.Records()
	if err := store.Close(); err != nil {
		return fmt.Errorf("probe sense: %w", err)
	}
	p.set("sense.add_campaign_ms", adds)

	opens, err := p.sized(5, 300*time.Millisecond).run(time.Millisecond, func() error {
		st, err := sense.OpenStore(dir)
		if err != nil {
			return err
		}
		return st.Close()
	})
	if err != nil {
		return fmt.Errorf("probe sense: reopening the store: %w", err)
	}
	p.set("sense.open_store_ms", opens)

	var model *sense.Model
	trains, err := p.sized(3, time.Second).run(time.Millisecond, func() (err error) {
		model, err = sense.Train(records, sense.TrainConfig{Seed: p.seed})
		return err
	})
	p.set("sense.train_ms", trains)
	if err != nil {
		// Two small campaigns may leave Train nothing confident to learn
		// from; that is a property of the data, not a fault of the probe.
		p.notef("sense.advise_us not measured: training refused: %v", err)
		p.m["sense.advise_us"] = 0
		return nil
	}
	pooled := sense.PoolBySubspace(records)
	// A fresh advisor per pass, so every query walks the forest and the
	// gate instead of hitting the subspace cache.
	passes, _ := p.sized(50, 300*time.Millisecond).run(time.Microsecond, func() error {
		adv := sense.NewAdvisor(model, sense.AdvisorConfig{Gate: 0.3})
		for _, r := range pooled {
			adv.Advise(r.Features)
		}
		return nil
	})
	p.m["sense.advise_us"] = median(passes) / float64(len(pooled))
	p.samples["sense.advise_us"] = len(passes) * len(pooled)
	return nil
}
