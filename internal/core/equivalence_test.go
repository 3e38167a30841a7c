package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
)

// The campaign-level execution-mode matrix. Every way of driving a campaign
// — RunCampaign, a supervisor with point workers and parallel trials,
// shards merged through SupervisorOptions.Inject, and a run killed after a
// few points and resumed from its journal — under every budget — fixed,
// adaptive, ML, ML with adaptive — runs on the production engine, with
// every shortcut on, and must produce the bytes the reference engine
// (Engine.reference: no arena, no fork, no memo, the full golden comparison,
// its own golden run) produces driven by RunCampaign. The per-trial
// shortcuts are held to their reference run by internal/mpi's trial
// table; this matrix holds the campaign's use of them —
// which trials fork, which reuse an outcome, which wave and worker runs
// what — to the same bytes.

func diffTestOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.TrialsPerPoint = 3
	opts.ML.Pruning = false
	opts.RunTimeout = 10 * time.Second
	return opts
}

func diffTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	app := is.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32
	cfg.Seed = opts.Seed
	return New(app, cfg, opts)
}

// stripSnapshotStats removes the SnapshotStats line from a JSONL stream and
// returns it separately (nil when the stream has none). It is the one line
// that says which way trials ran; it occupies the same sequence number on
// every leg, so the rest of the numbering stays aligned.
func stripSnapshotStats(t *testing.T, stream []byte) (rest, statsLine []byte) {
	t.Helper()
	var kept [][]byte
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if bytes.Contains(line, []byte(`"event":"SnapshotStats"`)) {
			if statsLine != nil {
				t.Fatalf("stream carries more than one SnapshotStats line:\n%s", stream)
			}
			statsLine = line
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n")), statsLine
}

// campaignLeg is one execution of a campaign: its JSON, its event stream
// without the SnapshotStats line and with the journal path replaced (nil
// where the driver's stream is in completion order), the trial accounting
// of every engine that ran it, and every trial those engines executed or
// reused, point by point.
type campaignLeg struct {
	json, stream []byte
	stats        SnapshotStats
	trials       []PointResult
	eng          *Engine // an engine of the campaign, for its widths
}

func (l *campaignLeg) add(e *Engine) {
	st := e.SnapshotStats()
	l.stats.Forked += st.Forked
	l.stats.Replayed += st.Replayed
	l.stats.Memoised += st.Memoised
	l.stats.Reconverged += st.Reconverged
	l.stats.AtCheckpoint += st.AtCheckpoint
	l.eng = e
}

// legRunner drives one configuration of a campaign: engine builds an engine
// for given options, every shortcut off on the reference. cell names the
// configuration — workload, seed and budget — where other tests may ask
// for the same reference legs.
type legRunner struct {
	t         *testing.T
	mk        func(Options) *Engine
	opts      Options
	reference bool
	cell      string
}

// referenceLegs holds the reference engine's legs by cell and leg. The
// reference is a pure function of its cell and, for a resumed leg, the
// kill point, so each run of the matrix runs it once and the slices under
// older names that follow reuse it; candidate legs always run.
var referenceLegs sync.Map // string -> *referenceLeg

type referenceLeg struct {
	once sync.Once
	leg  campaignLeg
	ok   bool
}

// cached returns run's leg, running it once per process for the
// reference of a named cell and every time otherwise.
func (r legRunner) cached(leg string, run func() campaignLeg) campaignLeg {
	r.t.Helper()
	if !r.reference || r.cell == "" {
		return run()
	}
	v, _ := referenceLegs.LoadOrStore(r.cell+"/"+leg, new(referenceLeg))
	e := v.(*referenceLeg)
	e.once.Do(func() { e.leg, e.ok = run(), true })
	if !e.ok {
		r.t.Fatalf("the reference's %s leg of %s failed", leg, r.cell)
	}
	return e.leg
}

func (r legRunner) engine(o Options) *Engine {
	e := r.mk(o)
	e.reference = r.reference
	return e
}

// observed gives o a JSONL observer writing to the returned buffer.
func observed(o Options) (Options, *bytes.Buffer, *JSONLObserver) {
	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	o.Observer = jo
	return o, &stream, jo
}

// finish records a leg's bytes: the campaign JSON and, when stream is not
// nil, the stream without its SnapshotStats line.
func (r legRunner) finish(leg *campaignLeg, res *CampaignResult, stream *bytes.Buffer, jo *JSONLObserver) {
	r.t.Helper()
	leg.json = campaignBytes(r.t, res)
	if stream != nil {
		if err := jo.Err(); err != nil {
			r.t.Fatal(err)
		}
		leg.stream, _ = stripSnapshotStats(r.t, stream.Bytes())
	}
}

// serial is RunCampaign.
func (r legRunner) serial() campaignLeg {
	r.t.Helper()
	return r.cached("RunCampaign", func() campaignLeg {
		o, stream, jo := observed(r.opts)
		e := r.engine(o)
		res, err := e.RunCampaign()
		if err != nil {
			r.t.Fatalf("RunCampaign: %v", err)
		}
		leg := campaignLeg{trials: res.Measured}
		leg.add(e)
		r.finish(&leg, res, stream, jo)
		return leg
	})
}

// workers is a supervisor running three points at a time, four trials of
// each at a time; its stream is in completion order.
func (r legRunner) workers() campaignLeg {
	r.t.Helper()
	o := r.opts
	o.Parallelism = 4
	e := r.engine(o)
	res := r.supervised(NewSupervisor(e, SupervisorOptions{Workers: 3}).Run(context.Background()))
	leg := campaignLeg{trials: res.Measured}
	leg.add(e)
	r.finish(&leg, res.CampaignResult, nil, nil)
	return leg
}

// shards measures the two halves of the campaign order with RunRange on
// engines of their own and merges them as internal/dist does: a one-worker
// supervisor whose Inject answers each point from the shards' records.
func (r legRunner) shards() campaignLeg {
	r.t.Helper()
	info, err := r.engine(r.opts).PlanInfo()
	if err != nil {
		r.t.Fatal(err)
	}
	var leg campaignLeg
	records := map[int]PointRecord{}
	for _, span := range [][2]int{{0, info.Points / 2}, {info.Points / 2, info.Points}} {
		e := r.engine(r.opts)
		rr, err := NewSupervisor(e, SupervisorOptions{Workers: 2}).RunRange(context.Background(), span[0], span[1], nil, nil)
		if err != nil || rr.Cancelled || len(rr.Quarantined) != 0 {
			r.t.Fatalf("shard %v: %v, %+v", span, err, rr)
		}
		for _, rec := range rr.Records {
			records[rec.Index] = rec
		}
		leg.add(e)
	}
	used := map[int]bool{}
	o, stream, jo := observed(r.opts)
	merge := r.engine(o)
	res := r.supervised(NewSupervisor(merge, SupervisorOptions{Workers: 1, Inject: func(_ context.Context, _ Point, idx, _ int) (PointResult, error) {
		rec, ok := records[idx]
		if !ok {
			return PointResult{}, fmt.Errorf("no shard record for point %d", idx)
		}
		used[idx] = true
		return rec.Result, nil
	}}).Run(context.Background()))
	leg.add(merge)
	// The shards ran the points the merge's learn loop never asked for too.
	leg.trials = res.Measured
	for idx, rec := range records {
		if !used[idx] {
			leg.trials = append(leg.trials, rec.Result)
		}
	}
	r.finish(&leg, res.CampaignResult, stream, jo)
	return leg
}

// resumed is a one-worker supervisor killed after k points — run to its
// end when k is 0, for a campaign too small to kill — and a second one
// resuming from its journal; the leg is the second's, its accounting
// both's.
func (r legRunner) resumed(k int) campaignLeg {
	r.t.Helper()
	return r.cached(fmt.Sprintf("killed after %d and resumed", k), func() campaignLeg {
		ckpt := filepath.Join(r.t.TempDir(), "leg.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := r.opts
		o.Observer = ObserverFunc(func(ev Event) {
			if pc, ok := ev.(PointCompleted); ok && k > 0 && pc.Completed == k {
				cancel()
			}
		})
		killed := r.engine(o)
		part, err := NewSupervisor(killed, SupervisorOptions{Workers: 1, Checkpoint: ckpt}).Run(ctx)
		if err != nil {
			r.t.Fatalf("killed leg: %v", err)
		}
		if part.Cancelled != (k > 0) || k > 0 && len(part.Measured) != k {
			r.t.Fatalf("kill after point %d: cancelled=%t with %d points measured", k, part.Cancelled, len(part.Measured))
		}
		o, stream, jo := observed(r.opts)
		e := r.engine(o)
		res := r.supervised(ResumeCampaign(context.Background(), e, SupervisorOptions{Workers: 1, Checkpoint: ckpt}))
		if res.FromCheckpoint != len(part.Measured) {
			r.t.Fatalf("resume restored %d points, want %d", res.FromCheckpoint, len(part.Measured))
		}
		leg := campaignLeg{trials: res.Measured}
		leg.add(killed)
		leg.add(e)
		// CheckpointAppended events name the journal, in a per-leg directory.
		stream = bytes.NewBuffer(bytes.ReplaceAll(stream.Bytes(), []byte(ckpt), []byte("CKPT")))
		r.finish(&leg, res.CampaignResult, stream, jo)
		return leg
	})
}

// resumedStream is the stream a killed-and-resumed leg is compared with:
// the reference's, killed after the same point and resumed, where the
// budget is fixed. Under the other budgets it is nil and the leg's JSON
// alone is compared: what a resumed stream adds to its JSON is the order
// the driver emits restored points and journal appends in, which the
// budget does not reach, and a resumed reference costs a second reference
// campaign.
func (r legRunner) resumedStream(k int, want campaignLeg) []byte {
	r.t.Helper()
	if r.opts.Adaptive.Enabled || r.opts.ML.Pruning {
		return nil
	}
	got := r.resumed(k)
	if !bytes.Equal(got.json, want.json) {
		r.t.Errorf("the reference killed and resumed differs from its RunCampaign\n%s\n%s", got.json, want.json)
	}
	return got.stream
}

func (r legRunner) supervised(res *SupervisedResult, err error) *SupervisedResult {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
	if res.Cancelled || len(res.Quarantined) != 0 {
		r.t.Fatalf("campaign not clean: %+v", res)
	}
	return res
}

// wantMemoised recomputes, from the trials a campaign recorded and the
// profile's widths alone, how many trials repeat an earlier effective fault
// of their point — the number the engine must report as Memoised.
func wantMemoised(t *testing.T, e *Engine, measured []PointResult) (memoised, total int) {
	t.Helper()
	for _, pr := range measured {
		w, ok := e.gold.Load().prof.Widths(pr.Point.Rank, pr.Point.Site, pr.Point.Invocation)
		if !ok {
			t.Fatalf("no widths recorded for %s", pr.Point.String())
		}
		seen := map[effectiveFault]bool{}
		for _, tr := range pr.Trials {
			k := effectiveFault{tr.Target, w.EffectiveBit(tr.Target, tr.Bit)}
			if seen[k] {
				memoised++
			}
			seen[k] = true
		}
		total += len(pr.Trials)
	}
	return memoised, total
}

// campaignBudget is one way to spend a campaign's trials.
type campaignBudget struct {
	name string
	set  func(*Options)
}

var campaignBudgets = []campaignBudget{
	{"fixed", func(o *Options) { o.Policy = PolicyAllParams }},
	{"adaptive", func(o *Options) { o.Adaptive.Enabled, o.TrialsPerPoint = true, 12 }},
	{"ml", func(o *Options) { o.ML.Pruning, o.ML.Batch, o.ML.MinTrain = true, 2, 4 }},
	{"ml+adaptive", func(o *Options) {
		o.ML.Pruning, o.ML.Batch = true, 4
		o.Adaptive.Enabled, o.TrialsPerPoint = true, 12
	}},
}

// campaignWorkload is one row of the matrix: an engine per seed and
// options, the budgets it runs under, and the shortcuts its candidate
// legs must take (forks: every leg forks, and the row cuts some trial;
// atCkpt: the row cuts some trial at a checkpoint). A workload with a
// network dimension forks nothing and reuses nothing.
type campaignWorkload struct {
	name          string
	mk            func(t *testing.T, seed int64) (func(Options) *Engine, Options)
	budgets       []campaignBudget
	forks, atCkpt bool
}

// campaignDrivers are the ways legs drives a campaign.
var campaignDrivers = []string{"RunCampaign", "Workers:3", "shards", "killed and resumed"}

func campaignWorkloads() []campaignWorkload {
	return []campaignWorkload{
		{"is", func(t *testing.T, seed int64) (func(Options) *Engine, Options) {
			return func(o Options) *Engine { return diffTestEngine(t, o) }, diffTestOptions(seed)
		}, campaignBudgets, true, false},
		{"lu", func(t *testing.T, seed int64) (func(Options) *Engine, Options) {
			return func(o Options) *Engine { return appDigestEngine(lu.New(), seed, o) }, diffTestOptions(seed)
		}, campaignBudgets, true, true},
		// A standing link/drop/crash plan under each algorithm variant in
		// turn, and on even seeds the network policy's random link and node
		// faults instead.
		{"network", func(t *testing.T, seed int64) (func(Options) *Engine, Options) {
			opts := netDiffOptions(t, seed)
			if seed%2 == 0 {
				opts.Network.Plan, opts.Policy = nil, PolicyNetwork
			}
			alg := netDiffVariants[int(seed)%len(netDiffVariants)]
			return func(o Options) *Engine { return netDiffEngine(t, o, alg) }, opts
		}, []campaignBudget{{"fixed", func(*Options) {}}}, false, false},
	}
}

// TestCampaignEquivalence runs the matrix: for every workload, seed and
// budget, the reference engine's RunCampaign and every driver on the
// production engine, comparing the campaign JSON of every leg and the
// stream of every leg whose stream is in campaign order with the
// reference's, byte for byte (the resumed leg's stream, under the fixed
// budget, with the reference engine's killed after the same point and
// resumed). Each candidate leg's accounting must be the partition of the
// trials it recorded, with Memoised the repeats of an effective fault; the
// reference forks and reuses nothing.
func TestCampaignEquivalence(t *testing.T) {
	referenceLegs.Range(func(k, _ any) bool { referenceLegs.Delete(k); return true })
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		seeds = 4
	}
	for _, w := range campaignWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			var mu sync.Mutex
			var cut, atCk int
			t.Cleanup(func() {
				if !t.Failed() && (w.forks && cut == 0 || w.atCkpt && atCk == 0) {
					t.Errorf("%d trials cut, %d at a checkpoint: the matrix does not exercise the cuts", cut, atCk)
				}
				t.Logf("%d trials cut, %d at a checkpoint", cut, atCk)
			})
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					mk, base := w.mk(t, seed)
					for _, b := range w.budgets {
						t.Run(b.name, func(t *testing.T) {
							opts := base
							b.set(&opts)
							cell := fmt.Sprintf("%s/seed=%d/%s", w.name, seed, b.name)
							c, ck := w.legs(t, legRunner{t: t, mk: mk, opts: opts, cell: cell}, 1+int(seed%3))
							mu.Lock()
							cut, atCk = cut+c, atCk+ck
							mu.Unlock()
						})
					}
				})
			}
		})
	}
}

// legs runs one campaign every way — or, when only names some, the
// drivers it names — k being the point the resumed leg is killed after,
// and returns how many trials its candidate legs cut, and how many of
// those at a checkpoint.
func (w campaignWorkload) legs(t *testing.T, cand legRunner, k int, only ...string) (cut, atCk int) {
	t.Helper()
	ref := cand
	ref.reference = true
	want := ref.serial()
	if want.stats.Forked != 0 || want.stats.Memoised != 0 {
		t.Errorf("the reference forked or reused: %+v", want.stats)
	}
	type driver struct {
		name       string
		run        func() campaignLeg
		wantStream []byte
	}
	drivers := []driver{
		{"RunCampaign", cand.serial, want.stream},
		{"Workers:3", cand.workers, nil},
		{"shards", cand.shards, want.stream},
	}
	// A campaign of k points or fewer is not killed after point k; one of
	// no point (a purely point-to-point variant) has nothing to kill.
	if k = min(k, len(want.trials)-1); k > 0 && (len(only) == 0 || slices.Contains(only, "killed and resumed")) {
		drivers = append(drivers, driver{"killed and resumed", func() campaignLeg { return cand.resumed(k) }, ref.resumedStream(k, want)})
	}
	for _, name := range only {
		if !slices.Contains(campaignDrivers, name) {
			t.Fatalf("no driver %q", name)
		}
	}
	var first *campaignLeg
	for _, leg := range drivers {
		if len(only) > 0 && !slices.Contains(only, leg.name) {
			continue
		}
		got := leg.run()
		sameAsReference(t, leg.name, got, want.json, leg.wantStream, w.forks, w.forks)
		cut += got.stats.Reconverged
		atCk += got.stats.AtCheckpoint
		// Whether a trial runs and is cut is a function of the trial, not of
		// the driver: a leg that ran as many trials as the first cut as many.
		a, b := got.stats, got.stats
		if first == nil {
			first = &got
		} else if b = first.stats; a.Forked+a.Replayed+a.Memoised == b.Forked+b.Replayed+b.Memoised &&
			(a.Reconverged != b.Reconverged || a.AtCheckpoint != b.AtCheckpoint) {
			t.Errorf("%s: %d trials cut, %d at a checkpoint, where the first leg's same trials had %d and %d", leg.name, a.Reconverged, a.AtCheckpoint, b.Reconverged, b.AtCheckpoint)
		}
	}
	return cut, atCk
}

// sameAsReference compares got, a candidate leg, with the reference's
// campaign JSON and, where wantStream is not nil, its stream, byte for
// byte. Its accounting must be the partition of the trials it recorded,
// with Memoised the repeats of an effective fault where the campaign keys
// its trials (none where it does not), and with some trial forked and none
// replayed where the candidate forks (none forked where it does not).
func sameAsReference(t *testing.T, name string, got campaignLeg, wantJSON, wantStream []byte, keyed, forks bool) {
	t.Helper()
	if !bytes.Equal(got.json, wantJSON) {
		t.Errorf("%s: campaign JSON differs from the reference's\ngot:  %s\nwant: %s", name, got.json, wantJSON)
	}
	if wantStream != nil && !bytes.Equal(got.stream, wantStream) {
		t.Errorf("%s: event stream differs from the reference's\ngot:\n%s\nwant:\n%s", name, got.stream, wantStream)
	}
	st := got.stats
	memoised, total := wantMemoised(t, got.eng, got.trials)
	if !keyed {
		memoised = 0
	}
	if st.Forked+st.Replayed+st.Memoised != total || st.Memoised != memoised || forks && (st.Forked == 0 || st.Replayed != 0) || !forks && st.Forked != 0 {
		t.Errorf("%s: accounting %+v, want the partition of %d trials with %d memoised and, where the candidate forks, some forked and none replayed (none forked where it does not)", name, st, total, memoised)
	}
}

// budgetNamed is the matrix's budget of that name.
func budgetNamed(t *testing.T, name string) campaignBudget {
	for _, b := range campaignBudgets {
		if b.name == name {
			return b
		}
	}
	t.Fatalf("no budget %q", name)
	return campaignBudget{}
}

// The suite's older names for slices of the matrix, and for the columns and
// rows it does not hold: the candidate under Fork.Disable, the halo
// applications' campaigns, the network plan under every budget. Each runs
// its cells through the same legs and the same comparison with the
// reference engine (sameAsReference) as TestCampaignEquivalence, and reuses
// the matrix's reference legs where it ran them.

// seedSweep runs, for every seed of the matrix, a campaign's fixed
// ("direct"), ML and adaptive budgets driven by RunCampaign, and its fixed
// budget killed after the matrix's point and resumed, each against the
// reference engine. cell gives a seed's subtest name, the workload's name
// in the matrix, and its engine and options; candidate, when not nil,
// changes the candidate's options only; keyed and forks are
// sameAsReference's.
func seedSweep(t *testing.T, keyed, forks bool, candidate func(*Options), cell func(seed int64) (string, string, func(Options) *Engine, Options)) {
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		name, workload, mk, base := cell(seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, leg := range []struct {
				name, budget string
				resumed      bool
			}{{"direct", "fixed", false}, {"ml", "ml", false}, {"adaptive", "adaptive", false}, {"resumed", "fixed", true}} {
				t.Run(leg.name, func(t *testing.T) {
					opts := base
					budgetNamed(t, leg.budget).set(&opts)
					ref := legRunner{t: t, mk: mk, opts: opts, reference: true, cell: fmt.Sprintf("%s/seed=%d/%s", workload, seed, leg.budget)}
					cand := legRunner{t: t, mk: mk, opts: opts}
					if candidate != nil {
						candidate(&cand.opts)
					}
					want := ref.serial()
					if !leg.resumed {
						sameAsReference(t, leg.name, cand.serial(), want.json, want.stream, keyed, forks)
						return
					}
					k := max(min(1+int(seed%3), len(want.trials)-1), 0)
					sameAsReference(t, leg.name, cand.resumed(k), want.json, ref.resumedStream(k, want), keyed, forks)
				})
			}
		})
	}
}

// TestDifferentialForkIdentity sweeps the matrix's is workload with every
// shortcut on.
func TestDifferentialForkIdentity(t *testing.T) {
	seedSweep(t, true, true, nil, func(seed int64) (string, string, func(Options) *Engine, Options) {
		return fmt.Sprintf("seed=%d", seed), "is", func(o Options) *Engine { return diffTestEngine(t, o) }, diffTestOptions(seed)
	})
}

// TestDifferentialPooledIdentity sweeps the matrix's is workload under
// Fork.Disable: every trial runs in full, so the buffer arena, the
// rendezvous and the digest comparison are held to the reference alone.
func TestDifferentialPooledIdentity(t *testing.T) {
	seedSweep(t, true, false, func(o *Options) { o.Fork.Disable = true }, func(seed int64) (string, string, func(Options) *Engine, Options) {
		return fmt.Sprintf("seed=%d", seed), "is", func(o Options) *Engine { return diffTestEngine(t, o) }, diffTestOptions(seed)
	})
}

// TestNetworkCampaignDeterminism sweeps the standing link/drop/crash plan
// on the torus, the algorithm variant rotating with the seed so every
// variant meets every leg. Every trial builds its own Network, so a leaked
// link-state mutation, an unordered survivor set or an rng misuse in the
// fault domain shows as a byte difference.
func TestNetworkCampaignDeterminism(t *testing.T) {
	seedSweep(t, false, false, nil, func(seed int64) (string, string, func(Options) *Engine, Options) {
		alg := netDiffVariants[int(seed)%len(netDiffVariants)]
		return fmt.Sprintf("seed=%d/alg=%s", seed, alg), "network-plan", func(o Options) *Engine { return netDiffEngine(t, o, alg) }, netDiffOptions(t, seed)
	})
}

// TestNetworkPolicyDeterminism runs the network policy's random
// egress-drop/egress-fail/crash faults at collective sites through every
// driver.
func TestNetworkPolicyDeterminism(t *testing.T) {
	opts := netDiffOptions(t, 7)
	opts.Network.Plan, opts.Policy = nil, PolicyNetwork
	w := campaignWorkload{name: "network-policy"}
	w.legs(t, legRunner{t: t, mk: func(o Options) *Engine { return netDiffEngine(t, o, "baseline") }, opts: opts}, 2)
}

// isCell runs the matrix's is workload at its first seed under the named
// budget through the named drivers, each against the reference engine.
func isCell(t *testing.T, budget string, drivers ...string) {
	w := campaignWorkloads()[0]
	mk, opts := w.mk(t, 1)
	budgetNamed(t, budget).set(&opts)
	w.legs(t, legRunner{t: t, mk: mk, opts: opts, cell: "is/seed=1/" + budget}, 2, drivers...)
}

// TestSupervisorMatchesRunCampaign: the worker count never reaches the
// result.
func TestSupervisorMatchesRunCampaign(t *testing.T) { isCell(t, "fixed", "RunCampaign", "Workers:3") }

// TestSupervisorInterruptResumeDeterminism: a campaign killed mid-run and
// resumed from its journal is the uninterrupted one.
func TestSupervisorInterruptResumeDeterminism(t *testing.T) {
	isCell(t, "fixed", "killed and resumed")
}

// TestSupervisorMLResumeDeterminism: resuming an ML campaign replays the
// journalled injections, so the learner retraces its path.
func TestSupervisorMLResumeDeterminism(t *testing.T) { isCell(t, "ml", "killed and resumed") }

// TestAdaptiveSerialMatchesSupervised: adaptive budgets, refinement pass
// included, do not depend on the worker count.
func TestAdaptiveSerialMatchesSupervised(t *testing.T) {
	isCell(t, "adaptive", "RunCampaign", "Workers:3")
}

// TestAdaptiveInterruptResumeDeterminism: the early-stop decisions and the
// refinement grants survive a kill and a resume.
func TestAdaptiveInterruptResumeDeterminism(t *testing.T) {
	isCell(t, "adaptive", "killed and resumed")
}

// TestAdaptiveMLSerialSupervisedResumeIdentity: with ML and adaptive
// budgets, the resumed learner retrains on the phase-1 trial prefix even
// where the journal holds refined records.
func TestAdaptiveMLSerialSupervisedResumeIdentity(t *testing.T) {
	isCell(t, "ml+adaptive", "RunCampaign", "Workers:3", "killed and resumed")
}

// TestMemoDeterminism: which trials execute, and which of them are cut,
// is a function of the trial sequence alone — the matrix's adaptive cells
// of is and lu at one seed, every driver; lu also cuts at a checkpoint.
func TestMemoDeterminism(t *testing.T) {
	for _, w := range campaignWorkloads()[:2] {
		t.Run(w.name, func(t *testing.T) {
			mk, opts := w.mk(t, 2)
			budgetNamed(t, "adaptive").set(&opts)
			if cut, atCk := w.legs(t, legRunner{t: t, mk: mk, opts: opts, cell: w.name + "/seed=2/adaptive"}, 3); cut == 0 || w.atCkpt && atCk == 0 {
				t.Errorf("%d trials cut, %d at a checkpoint: the cell does not exercise the cuts", cut, atCk)
			}
		})
	}
}

// haloCampaigns runs campaigns of the three halo applications, 16 trials a
// point, under the named budget, RunCampaign against the reference
// engine's, and returns each application's candidate accounting.
func haloCampaigns(t *testing.T, budget string) map[string]SnapshotStats {
	seeds := int64(3)
	if raceEnabled || testing.Short() {
		seeds = 1
	}
	stats := map[string]SnapshotStats{}
	for _, app := range []apps.App{mg.New(), lu.New(), minimd.New()} {
		for seed := int64(1); seed <= seeds; seed++ {
			opts := diffTestOptions(seed)
			budgetNamed(t, budget).set(&opts)
			opts.TrialsPerPoint = 16
			cand := legRunner{t: t, mk: func(o Options) *Engine { return appDigestEngine(app, seed, o) }, opts: opts}
			ref := cand
			ref.reference = true
			want, got := ref.serial(), cand.serial()
			sameAsReference(t, fmt.Sprintf("%s/seed=%d", app.Name(), seed), got, want.json, want.stream, true, true)
			st := stats[app.Name()]
			st.Memoised += got.stats.Memoised
			st.Reconverged += got.stats.Reconverged
			st.AtCheckpoint += got.stats.AtCheckpoint
			stats[app.Name()] = st
		}
	}
	return stats
}

// TestMemoOracle: allparams campaigns of the halo applications, where
// repeats of an effective fault are certain, reuse outcomes and still give
// the reference's bytes, the one that executes every trial.
func TestMemoOracle(t *testing.T) {
	reused := 0
	for _, st := range haloCampaigns(t, "fixed") {
		reused += st.Memoised
	}
	if reused == 0 {
		t.Fatal("no campaign reused an outcome; the oracle compared nothing the memo produced")
	}
}

// TestReconvOracle: adaptive campaigns of the halo applications cut trials
// at the faulted call and at a later checkpoint, on every application, and
// still give the bytes of the reference, the one that runs every trial to
// its end.
func TestReconvOracle(t *testing.T) {
	for app, st := range haloCampaigns(t, "adaptive") {
		if st.Reconverged == 0 || st.AtCheckpoint == 0 {
			t.Errorf("%s: %d trials cut, %d at a checkpoint; the campaigns do not exercise both cuts", app, st.Reconverged, st.AtCheckpoint)
		}
	}
}
