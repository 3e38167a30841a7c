package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
)

// supTestOptions is a small, fast, fully-deterministic direct-injection
// campaign configuration (no ML: the direct path exercises the worker
// pool; the ML path has its own test).
func supTestOptions() Options {
	opts := DefaultOptions()
	opts.TrialsPerPoint = 4
	opts.ML.Pruning = false
	opts.RunTimeout = 10 * time.Second
	return opts
}

func supTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	app := is.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 8
	cfg.Scale = 128
	return New(app, cfg, opts)
}

func campaignBytes(t *testing.T, res *CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSupervisorMatchesRunCampaign: a Workers:4 campaign must be
// bit-identical to RunCampaign — the same driver at Workers:1 — on the
// same configuration: the worker count never reaches the result.
func TestSupervisorMatchesRunCampaign(t *testing.T) {
	opts := supTestOptions()
	serial, err := supTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sup.Cancelled || len(sup.Quarantined) != 0 {
		t.Fatalf("unexpected supervision events: %+v", sup)
	}
	if !bytes.Equal(campaignBytes(t, serial), campaignBytes(t, sup.CampaignResult)) {
		t.Fatalf("supervised campaign diverged from serial campaign:\nserial: %s\nsupervised: %s",
			serial.Summary(), sup.Summary())
	}
}

// TestSupervisorInterruptResumeDeterminism is the acceptance criterion: a
// campaign cancelled mid-run and resumed from its checkpoint must yield a
// CampaignResult identical to the uninterrupted run with the same seed.
func TestSupervisorInterruptResumeDeterminism(t *testing.T) {
	opts := supTestOptions()
	dir := t.TempDir()

	// Reference: uninterrupted supervised run.
	full, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: filepath.Join(dir, "full.ckpt"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Cancelled {
		t.Fatal("reference run cancelled?")
	}
	total := len(full.Measured)
	if total < 4 {
		t.Fatalf("campaign too small to interrupt meaningfully: %d points", total)
	}

	// Interrupted run: cancel after 3 completed points.
	ckpt := filepath.Join(dir, "interrupted.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 3 {
			cancel()
		}
	})
	part, err := NewSupervisor(supTestEngine(t, intOpts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled {
		t.Fatal("interrupted run not marked Cancelled")
	}
	if len(part.Measured) >= total {
		t.Fatalf("cancellation had no effect: %d/%d points", len(part.Measured), total)
	}

	// Resume in a "new process" (fresh engine) from the journal.
	res, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Fatal("resumed run cancelled?")
	}
	if res.FromCheckpoint == 0 {
		t.Fatal("resume restored nothing from the checkpoint")
	}
	if res.FromCheckpoint+0 >= total {
		t.Fatalf("resume had nothing left to inject (%d restored of %d)", res.FromCheckpoint, total)
	}
	if !bytes.Equal(campaignBytes(t, full.CampaignResult), campaignBytes(t, res.CampaignResult)) {
		t.Fatalf("resumed campaign diverged from uninterrupted run:\nfull:    %s\nresumed: %s",
			full.Summary(), res.Summary())
	}
}

// TestSupervisorMLResumeDeterminism covers the ML feedback loop: resuming
// replays checkpointed injections so the learner retraces the exact path.
func TestSupervisorMLResumeDeterminism(t *testing.T) {
	opts := supTestOptions()
	opts.ML.Pruning = true
	opts.TrialsPerPoint = 4
	opts.ML.Batch = 4
	dir := t.TempDir()

	full, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: filepath.Join(dir, "full.ckpt"),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Measured) < 3 {
		t.Fatalf("ML campaign measured too little: %d", len(full.Measured))
	}

	ckpt := filepath.Join(dir, "interrupted.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	var finished CampaignFinished
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 2 {
			cancel()
		}
		if cf, ok := ev.(CampaignFinished); ok {
			finished = cf
		}
	})
	part, err := NewSupervisor(supTestEngine(t, intOpts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled {
		t.Fatal("interrupted ML run not marked Cancelled")
	}
	if len(part.Predicted) != 0 {
		t.Fatal("a cancelled ML campaign must not fabricate predictions")
	}
	// The cancel lands mid-batch: the points of that batch already
	// journalled are part of the result, as on the direct path.
	info, err := supTestEngine(t, opts).PlanInfo()
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadCheckpointState(ckpt, info.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Results); n == 0 || len(part.Measured) != n || part.Injected != n || finished.Injected != n {
		t.Fatalf("cancelled ML campaign: journal holds %d points, result measures %d, Injected %d, CampaignFinished.Injected %d",
			n, len(part.Measured), part.Injected, finished.Injected)
	}

	res, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Workers: 4, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(campaignBytes(t, full.CampaignResult), campaignBytes(t, res.CampaignResult)) {
		t.Fatalf("resumed ML campaign diverged:\nfull:    %s\nresumed: %s",
			full.Summary(), res.Summary())
	}
}

// fakeInject fabricates a deterministic PointResult without running the
// simulator, so harness-failure tests are fast and timing-independent.
func fakeInject(p Point, trials int) PointResult {
	pr := PointResult{Point: p}
	for i := 0; i < trials; i++ {
		tr := TrialResult{Target: fault.TargetSendBuf, Bit: i, Outcome: classify.Success}
		pr.Trials = append(pr.Trials, tr)
		pr.Counts.Add(tr.Outcome)
	}
	return pr
}

// TestSupervisorQuarantinesPoisonPoint: a point whose harness attempt
// panics deterministically must be retried, then quarantined, without
// aborting the campaign.
func TestSupervisorQuarantinesPoisonPoint(t *testing.T) {
	opts := supTestOptions()
	ckpt := filepath.Join(t.TempDir(), "poison.ckpt")
	var calls atomic.Int32
	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers:      2,
		Checkpoint:   ckpt,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Inject: func(ctx context.Context, p Point, idx, trials int) (PointResult, error) {
			calls.Add(1)
			if idx == 1 {
				panic(fmt.Sprintf("wedged harness at point %d", idx))
			}
			return fakeInject(p, trials), nil
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want exactly the poison point", sup.Quarantined)
	}
	q := sup.Quarantined[0]
	if q.Index != 1 || q.Attempts != 2 {
		t.Fatalf("quarantine record: %+v", q)
	}
	if sup.HarnessRetries < 1 {
		t.Fatalf("retries not counted: %d", sup.HarnessRetries)
	}
	total := sup.AfterContext
	if len(sup.Measured) != total-1 {
		t.Fatalf("measured %d of %d points (one should be quarantined)", len(sup.Measured), total)
	}
	if sup.Injected != total-1 {
		t.Fatalf("Injected accounting includes the quarantined point: %d", sup.Injected)
	}
	for _, pr := range sup.Measured {
		if pr.Point == q.Point {
			t.Fatal("quarantined point leaked into Measured")
		}
	}

	// Resume must not retry the quarantined point: the journal remembers.
	resumed, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
		Inject: func(ctx context.Context, p Point, idx, trials int) (PointResult, error) {
			t.Errorf("resume re-injected point %d despite a complete checkpoint", idx)
			return fakeInject(p, trials), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Quarantined) != 1 || resumed.Quarantined[0].Index != 1 {
		t.Fatalf("quarantine not restored from checkpoint: %+v", resumed.Quarantined)
	}
	if len(resumed.Measured) != total-1 {
		t.Fatalf("resumed measured %d, want %d", len(resumed.Measured), total-1)
	}
}

// TestSupervisorWatchdogRetriesWedgedPoint: an attempt that hangs past the
// watchdog is abandoned and retried; the retry's result wins.
func TestSupervisorWatchdogRetriesWedgedPoint(t *testing.T) {
	opts := supTestOptions()
	var attempts atomic.Int32
	release := make(chan struct{})
	defer close(release)
	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers:      1,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		PointTimeout: 100 * time.Millisecond,
		Inject: func(ctx context.Context, p Point, idx, trials int) (PointResult, error) {
			if idx == 0 && attempts.Add(1) == 1 {
				<-release // wedge the first attempt at point 0 forever
			}
			return fakeInject(p, trials), nil
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.Quarantined) != 0 {
		t.Fatalf("watchdogged point should recover on retry, got quarantine: %+v", sup.Quarantined)
	}
	if sup.HarnessRetries < 1 {
		t.Fatalf("watchdog expiry not counted as a retry: %d", sup.HarnessRetries)
	}
	if len(sup.Measured) != sup.AfterContext {
		t.Fatalf("measured %d of %d", len(sup.Measured), sup.AfterContext)
	}
}

// TestSupervisorRejectsForeignCheckpoint: resuming with different campaign
// parameters must fail loudly, not merge incompatible results.
func TestSupervisorRejectsForeignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	opts := supTestOptions()
	if _, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{
		Workers:    2,
		Checkpoint: ckpt,
		Inject: func(ctx context.Context, p Point, idx, trials int) (PointResult, error) {
			return fakeInject(p, trials), nil
		},
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	otherOpts := opts
	otherOpts.Seed = 999
	_, err := NewSupervisor(supTestEngine(t, otherOpts), SupervisorOptions{
		Workers: 2, Checkpoint: ckpt,
	}).Run(context.Background())
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
}

// TestResumeCampaignRequiresJournal: ResumeCampaign is explicit — no
// journal means an error, not a silent fresh start.
func TestResumeCampaignRequiresJournal(t *testing.T) {
	opts := supTestOptions()
	_, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{
		Checkpoint: filepath.Join(t.TempDir(), "missing.ckpt"),
	})
	if err == nil {
		t.Fatal("resume from a missing checkpoint must fail")
	}
	if _, err := ResumeCampaign(context.Background(), supTestEngine(t, opts), SupervisorOptions{}); err == nil {
		t.Fatal("resume without a checkpoint path must fail")
	}
}

// TestJournalFailureStopsInjection: a campaign that can no longer persist
// results must stop spending trials. Once the k-th journal append has
// landed the journal is broken; the next point's append fails, and no
// PointStarted may follow it — on the direct path, inside an ML batch, and
// on a shard's sink (RunRange).
func TestJournalFailureStopsInjection(t *testing.T) {
	const k = 3
	inject := func(ctx context.Context, p Point, idx, trials int) (PointResult, error) {
		return fakeInject(p, trials), nil
	}
	// startedAfterBreak counts PointStarted events after the k-th append.
	startedAfterBreak := func(events []Event, broke func(Event) bool) int {
		n, broken := 0, false
		for _, ev := range events {
			if _, ok := ev.(PointStarted); ok && broken {
				n++
			}
			broken = broken || broke(ev)
		}
		return n
	}

	for _, path := range []string{"direct", "ml"} {
		t.Run(path, func(t *testing.T) {
			opts := supTestOptions()
			opts.ML.Pruning = path == "ml"
			opts.ML.Batch = 2 * k // the break lands mid-batch
			rec := &eventRecorder{}
			var ck *Checkpoint
			kth := func(ev Event) bool {
				ca, ok := ev.(CheckpointAppended)
				return ok && ca.Records == k
			}
			opts.Observer = MultiObserver(rec, ObserverFunc(func(ev Event) {
				if kth(ev) {
					ck.Close() // every later append fails: "already closed"
				}
			}))
			e := supTestEngine(t, opts)
			s := NewSupervisor(e, SupervisorOptions{Workers: 1, Inject: inject})
			plan, err := e.planCampaign()
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.order) < k+3 {
				t.Fatalf("campaign of %d points is too small to break after %d", len(plan.order), k)
			}
			if ck, err = CreateCheckpoint(filepath.Join(t.TempDir(), "c.ckpt"), "fp", "is", 8, len(plan.order)); err != nil {
				t.Fatal(err)
			}
			st := newCheckpointState()
			run := &supervisedRun{sup: s, ckpt: ck, results: st.Results, quar: st.Quarantined,
				base: st.BaseTrials, total: len(plan.order)}
			s.measure(context.Background(), plan, run)
			if err := run.err(); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("run error = %v, want the failed append", err)
			}
			// Exactly one point starts after the break: the one whose
			// append then fails.
			if n := startedAfterBreak(rec.all(), kth); n != 1 {
				t.Fatalf("%d points started after the journal broke, want 1", n)
			}
		})
	}

	t.Run("sink", func(t *testing.T) {
		opts := supTestOptions()
		rec := &eventRecorder{}
		opts.Observer = rec
		s := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 1, Inject: inject})
		sunk := 0
		_, err := s.RunRange(context.Background(), 0, k+3, nil, func(PointRecord) error {
			if sunk++; sunk == k {
				return errors.New("coordinator gone")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "coordinator gone") {
			t.Fatalf("RunRange error = %v, want the sink's", err)
		}
		if sunk != k {
			t.Fatalf("sink called %d times, want %d", sunk, k)
		}
		started := 0
		for _, ev := range rec.all() {
			if _, ok := ev.(PointStarted); ok {
				started++
			}
		}
		if started != k {
			t.Fatalf("%d points started, want %d: none after the sink failed", started, k)
		}
	})
}

// TestRunRangeClosesWithSnapshotStats: a shard's stream ends the way a
// campaign's does — SnapshotStats, then CampaignFinished — so a shard's
// -progress and -events show its fork accounting, and that accounting covers
// exactly the trials the range recorded.
func TestRunRangeClosesWithSnapshotStats(t *testing.T) {
	opts := supTestOptions()
	rec := &eventRecorder{}
	opts.Observer = rec
	s := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 2})
	res, err := s.RunRange(context.Background(), 1, 6, map[int]bool{3: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	for _, r := range res.Records {
		trials += len(r.Result.Trials)
	}
	evs := rec.all()
	if len(evs) < 2 || len(res.Records) != 4 || trials == 0 {
		t.Fatalf("range recorded %d points, %d trials, in a stream of %d events", len(res.Records), trials, len(evs))
	}
	snap, ok := evs[len(evs)-2].(SnapshotStats)
	if _, fin := evs[len(evs)-1].(CampaignFinished); !ok || !fin {
		t.Fatalf("stream ends %T, %T; want SnapshotStats, CampaignFinished", evs[len(evs)-2], evs[len(evs)-1])
	}
	if got := snap.Forked + snap.Replayed + snap.Memoised; got != trials || snap.Forked == 0 {
		t.Fatalf("SnapshotStats %+v accounts for %d trials; the range recorded %d, and the is trials fork", snap, got, trials)
	}
}

// TestRunCampaignRefusesQuarantine: RunCampaign's caller has no Quarantined
// field to inspect, so a point the harness could not measure is an error
// naming the first failure — never a result silently short of points.
func TestRunCampaignRefusesQuarantine(t *testing.T) {
	e := supTestEngine(t, supTestOptions())
	// RunCampaign has no injection seam, so break the harness itself: a
	// negative budget (unreachable through New) panics the trial wave on
	// the attempt's own goroutine, which the supervisor reports as a
	// harness failure.
	e.opts.TrialsPerPoint = -1
	res, err := e.RunCampaign()
	if err == nil || res != nil || !strings.Contains(err.Error(), "harness failure") || !strings.Contains(err.Error(), "point 0") {
		t.Fatalf("RunCampaign = %v, %v; want no result and an error naming the first harness failure", res, err)
	}
}
