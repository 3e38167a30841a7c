package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/fault"
)

// campaignDeadline bounds one campaign so a wedged driver is a failed
// operation, not a hung benchmark.
const campaignDeadline = 2 * time.Minute

// The sharded workload's control-plane sizes (the ffd defaults scaled to a
// 480-point campaign).
const (
	shardLeaseSize = 16
	shardBatchSize = 8
	shardPoll      = 2 * time.Millisecond
)

// sample is everything the harness keeps from one campaign.
type sample struct {
	seed     int64
	wall     time.Duration // core.New → driver returned → result JSON serialised
	trials   int
	points   int // measured points
	digest   [sha256.Size]byte
	result   *core.CampaignResult // kept for references only
	eng      *core.Engine         // kept for references only: replays the campaign's trials
	snap     core.SnapshotStats   // the engine's fork accounting after the campaign
	leases   int                  // leases granted (sharded driver only)
	mismatch bool                 // the result's bytes differ from the seed's reference
	failures []string             // correctness checks this campaign missed
}

// outcome is what a driver hands back for checking.
type outcome struct {
	res    *core.SupervisedResult
	leases int
	// controlPlane lists sharded-driver postconditions that did not hold.
	controlPlane []string
}

// runner executes the campaigns of one benchmark run.
type runner struct {
	w   *workload
	tmp string // scratch root for journals and stores
	seq int    // campaigns started, for unique scratch names

	// corrupt, when set, damages a finished result before it is checked —
	// the test seam proving a bad result is counted, not crashed on.
	corrupt func(*core.CampaignResult)
}

// campaign runs campaign number id of the measured loop on a fresh engine,
// on ref's seed, and checks it against ref. tr traces it when non-nil.
func (r *runner) campaign(id int, ref *sample, tr *tracer) sample {
	return r.run(id, ref.seed, &ref.digest, tr)
}

// reference runs the set-up campaign for a seed: the Workers:1 supervised
// run every other driver must be byte-identical to. It is never traced.
func (r *runner) reference(seed int64) sample {
	return r.run(0, seed, nil, nil)
}

func (r *runner) run(id int, seed int64, ref *[sha256.Size]byte, tr *tracer) sample {
	r.seq++
	s := sample{seed: seed}
	drv := r.w.driver
	if ref == nil {
		drv = driverSupervised
	}

	start := time.Now()
	root := tr.begin("campaign", 0, id)
	defer tr.end(root)
	drvSpan := tr.begin("driver", root, id)
	defer tr.end(drvSpan)
	var obs *campaignObserver
	var engObs core.Observer
	if tr != nil {
		obs = newCampaignObserver(tr, id, drvSpan, "")
		if drv != driverSharded {
			engObs = obs // a coordinator authors its own feed; its engine stays quiet
		}
	}
	eng, err := r.w.engine(seed, engObs)
	if err != nil {
		s.failures = append(s.failures, err.Error())
		return s
	}
	if tr != nil {
		// Profile is idempotent, so the driver reuses this one; calling it
		// here is what lets the harness time the layer from outside.
		prof := tr.begin("profile", drvSpan, id)
		_, err = eng.Profile()
		tr.end(prof)
		if err != nil {
			s.failures = append(s.failures, "profile: "+err.Error())
			return s
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), campaignDeadline)
	defer cancel()
	var out outcome
	switch {
	case ref == nil:
		out, err = r.supervised(ctx, eng, 1, "")
	case drv == driverSerial:
		out, err = r.serial(eng)
	case drv == driverSupervised:
		out, err = r.supervised(ctx, eng, pinnedWorkers, filepath.Join(r.tmp, fmt.Sprintf("campaign-%d.ckpt", r.seq)))
	default:
		out, err = r.sharded(ctx, eng, tr, obs, drvSpan, id)
	}
	tr.end(drvSpan)
	if err != nil {
		s.failures = append(s.failures, "driver: "+err.Error())
		return s
	}

	var buf bytes.Buffer
	wj := tr.begin("write_json", root, id)
	err = out.res.CampaignResult.WriteJSON(&buf)
	tr.end(wj)
	s.wall = time.Since(start)
	tr.end(root)
	if err != nil {
		s.failures = append(s.failures, "write json: "+err.Error())
		return s
	}

	res := out.res.CampaignResult
	if ref == nil {
		// Only a reference is kept: its trials are replayed later. Holding
		// every measured campaign's engine would grow peak RSS with the
		// campaign count.
		s.result, s.eng = res, eng
	} else if r.corrupt != nil {
		r.corrupt(res)
		buf.Reset()
		if err := res.WriteJSON(&buf); err != nil {
			s.failures = append(s.failures, "write json: "+err.Error())
		}
	}
	s.digest = sha256.Sum256(buf.Bytes())
	s.snap = eng.SnapshotStats()
	s.leases = out.leases
	s.points = len(res.Measured)
	for _, pr := range res.Measured {
		s.trials += len(pr.Trials)
	}
	s.failures = append(s.failures, r.check(eng, out)...)
	// (c) byte identity with the seed's Workers:1 supervised reference.
	if ref != nil && s.digest != *ref {
		s.mismatch = true
		s.failures = append(s.failures, fmt.Sprintf("result digest %x differs from the seed's Workers:1 reference %x", s.digest[:6], ref[:6]))
	}
	return s
}

// check applies the per-campaign rules (a) and (b) — clean finish and
// accounting — and returns the ones that did not hold.
func (r *runner) check(eng *core.Engine, out outcome) []string {
	var fails []string
	bad := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	res := out.res

	// (a) the driver finished cleanly.
	if res.Cancelled {
		bad("campaign cancelled")
	}
	if n := len(res.Quarantined); n > 0 {
		bad("%d points quarantined", n)
	}
	if res.HarnessRetries != 0 {
		bad("%d harness retries", res.HarnessRetries)
	}

	// (b) accounting.
	if want := r.w.pointsPerRank * r.w.ranks; res.TotalPoints != want {
		bad("TotalPoints %d, workload records %d", res.TotalPoints, want)
	}
	if res.Injected != len(res.Measured) {
		bad("Injected %d but %d measured points", res.Injected, len(res.Measured))
	}
	if want := r.w.wantMeasured(); len(res.Measured) == 0 || (want >= 0 && len(res.Measured) != want) {
		bad("%d measured points, workload records %d", len(res.Measured), want)
	}
	budget := eng.Options().TrialsPerPoint
	for i := range res.Measured {
		pr := &res.Measured[i]
		if pr.Counts.Total() != len(pr.Trials) {
			bad("point %d: outcome counts total %d, %d trials", i, pr.Counts.Total(), len(pr.Trials))
		}
		if r.w.fixedBudget && len(pr.Trials) != budget {
			bad("point %d: %d trials, budget %d", i, len(pr.Trials), budget)
		}
		if !r.w.fixedBudget && (len(pr.Trials) == 0 || len(pr.Trials) > budget) {
			bad("point %d: %d trials outside (0,%d]", i, len(pr.Trials), budget)
		}
	}
	return append(fails, out.controlPlane...)
}

func (r *runner) serial(eng *core.Engine) (outcome, error) {
	res, err := eng.RunCampaign()
	if err != nil {
		return outcome{}, err
	}
	return outcome{res: &core.SupervisedResult{CampaignResult: res}}, nil
}

func (r *runner) supervised(ctx context.Context, eng *core.Engine, workers int, checkpoint string) (outcome, error) {
	res, err := core.NewSupervisor(eng, core.SupervisorOptions{Workers: workers, Checkpoint: checkpoint}).Run(ctx)
	if checkpoint != "" {
		os.Remove(checkpoint) // scratch hygiene; the journal is not part of the result
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{res: res}, nil
}

// sharded runs one campaign through the distributed service: a Service with
// an on-disk store behind a loopback HTTP server, two in-process shards,
// the deterministic merge. tr and obs are nil on untraced runs.
func (r *runner) sharded(ctx context.Context, eng *core.Engine, tr *tracer, obs *campaignObserver, drvSpan, id int) (outcome, error) {
	store := filepath.Join(r.tmp, fmt.Sprintf("store-%d", r.seq))
	defer os.RemoveAll(store)
	copts := dist.CoordinatorOptions{
		LeaseSize:  shardLeaseSize,
		Supervisor: core.SupervisorOptions{Workers: 1, Checkpoint: filepath.Join(store, "merged.ckpt")},
	}
	if obs != nil {
		copts.Observer = obs
	}
	svc := dist.NewService(store, all.Lookup)
	coord, _, err := svc.Open(eng, copts)
	if err != nil {
		return outcome{}, fmt.Errorf("opening campaign: %w", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A shard that fails cancels the campaign: Result would otherwise wait
	// for records that are never coming.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, pinnedWorkers)
	var wg sync.WaitGroup
	for i := 0; i < pinnedWorkers; i++ {
		wopts := dist.WorkerOptions{
			Name:         fmt.Sprintf("shard-%d", i),
			Lookup:       all.Lookup,
			Campaign:     coord.Spec().Fingerprint,
			Workers:      1,
			BatchSize:    shardBatchSize,
			PollInterval: shardPoll,
		}
		if obs != nil {
			wopts.Observer = newCampaignObserver(tr, id, drvSpan, "shard:")
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = dist.RunWorker(ctx, srv.URL, wopts); errs[i] != nil {
				cancel()
			}
		}(i)
	}

	// The merge span runs from the record store completing to Result
	// returning; Result waits on the same channel, so the extra wait costs
	// an untraced run nothing.
	merge := 0
	select {
	case <-coord.Done():
		merge = tr.begin("merge", drvSpan, id)
	case <-ctx.Done():
	}
	res, err := coord.Result(ctx)
	tr.end(merge)
	cancel()
	wg.Wait()
	if err != nil {
		return outcome{}, errors.Join(append([]error{fmt.Errorf("merge: %w", err)}, errs...)...)
	}

	out := outcome{res: res}
	for i, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			out.controlPlane = append(out.controlPlane, fmt.Sprintf("shard-%d: %v", i, werr))
		}
	}
	st := coord.Status()
	out.leases = st.LeasesGranted
	if !st.Complete || !st.Merged {
		out.controlPlane = append(out.controlPlane, fmt.Sprintf("coordinator status complete=%v merged=%v", st.Complete, st.Merged))
	}
	if n := len(st.Leases); n > 0 {
		out.controlPlane = append(out.controlPlane, fmt.Sprintf("%d leases outstanding after merge", n))
	}
	return out, nil
}

// heavyTrial is the run time above which a single trial is treated as part
// of the heavy tail rather than of the workload: the workloads' ordinary
// trials take 0.5 to 50 ms.
const heavyTrial = 100 * time.Millisecond

// heavyTrials counts the result's trials that ran longer than heavyTrial or
// into the wall-clock timeout, by replaying every trial's recorded fault.
// Trial cost is heavy-tailed: a flipped bit in a broadcast problem size can
// send a rank into a loop that only the simulator's fixed work budget ends
// (≈0.85 s at 32 ranks for lu, ≈0.2 s for mg), make the application solve a
// far larger problem (≈0.55 s), or hang it until the 2 s timeout. One such
// trial costs as much as hundreds of ordinary ones, it mostly measures a
// constant of the simulator, and which seeds contain one is a property of
// the seed — so -screen uses this count to keep those seeds out of the
// benchmark's inputs.
func heavyTrials(eng *core.Engine, res *core.CampaignResult) int {
	heavy := 0
	for i := range res.Measured {
		pr := &res.Measured[i]
		for k := range pr.Trials {
			if _, run := eng.RunOnce(recordedFault(pr, k)); run.TimedOut || run.Elapsed > heavyTrial {
				heavy++
			}
		}
	}
	return heavy
}

// recordedFault returns the fault of the k-th recorded trial of a measured
// point.
func recordedFault(pr *core.PointResult, k int) fault.Fault {
	t := pr.Trials[k%len(pr.Trials)]
	return fault.Fault{Rank: pr.Point.Rank, Site: pr.Point.Site, Invocation: pr.Point.Invocation, Target: t.Target, Bit: t.Bit}
}
