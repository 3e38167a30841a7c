package core

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/classify"
)

// eventRecorder captures a campaign's event stream for assertions.
type eventRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *eventRecorder) OnEvent(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *eventRecorder) all() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// assertWellOrdered checks the acceptance-criterion invariants on a
// complete campaign stream: CampaignStarted first, CampaignFinished last,
// completion events carry strictly increasing Completed counts (starting at
// 1) against a constant Total, and no point completes before it started
// (checkpoint-restored points excepted — they were started by an earlier
// run).
func assertWellOrdered(t *testing.T, events []Event) (completions int, total int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	if _, ok := events[0].(CampaignStarted); !ok {
		t.Fatalf("first event is %T, want CampaignStarted", events[0])
	}
	if _, ok := events[len(events)-1].(CampaignFinished); !ok {
		t.Fatalf("last event is %T, want CampaignFinished", events[len(events)-1])
	}
	for _, ev := range events[1 : len(events)-1] {
		switch ev.(type) {
		case CampaignStarted:
			t.Fatal("CampaignStarted emitted twice")
		case CampaignFinished:
			t.Fatal("CampaignFinished emitted before the end of the stream")
		}
	}

	started := map[int]bool{}
	prev := 0
	for _, ev := range events {
		switch ev := ev.(type) {
		case PointStarted:
			started[ev.Index] = true
		case PointCompleted:
			if ev.Completed != prev+1 {
				t.Fatalf("completed count jumped %d -> %d (index %d)", prev, ev.Completed, ev.Index)
			}
			prev = ev.Completed
			if total == 0 {
				total = ev.Total
			} else if ev.Total != total {
				t.Fatalf("Total changed mid-campaign: %d -> %d", total, ev.Total)
			}
			if !ev.FromCheckpoint && !started[ev.Index] {
				t.Fatalf("point %d completed without a PointStarted", ev.Index)
			}
			completions++
		case PointQuarantined:
			if ev.Completed != prev+1 {
				t.Fatalf("completed count jumped %d -> %d (quarantine %d)", prev, ev.Completed, ev.Point.Index)
			}
			prev = ev.Completed
		}
	}
	return completions, total
}

// TestSupervisorEventStream: a direct campaign emits a well-ordered stream
// whose StreamStats tallies are byte-identical to OutcomeBreakdown of the
// returned result — through a parallel worker pool with intra-point
// parallelism, and through RunCampaign's one-worker run of the same driver.
func TestSupervisorEventStream(t *testing.T) {
	for name, run := range map[string]func(Options) (*CampaignResult, error){
		"workers=4": func(opts Options) (*CampaignResult, error) {
			opts.Parallelism = 4
			sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
			if err != nil {
				return nil, err
			}
			return sup.CampaignResult, nil
		},
		"RunCampaign": func(opts Options) (*CampaignResult, error) {
			return supTestEngine(t, opts).RunCampaign()
		},
	} {
		t.Run(name, func(t *testing.T) {
			opts := supTestOptions()
			stats := NewStreamStats()
			rec := &eventRecorder{}
			opts.Observer = MultiObserver(stats, rec)

			res, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			events := rec.all()
			completions, total := assertWellOrdered(t, events)
			if completions != len(res.Measured) {
				t.Fatalf("saw %d PointCompleted events, campaign measured %d points", completions, len(res.Measured))
			}
			if total != res.AfterContext {
				t.Fatalf("event Total = %d, want the pruned point count %d", total, res.AfterContext)
			}

			want := OutcomeBreakdown(res.Measured)
			if got := stats.Counts(); got != want {
				t.Fatalf("StreamStats counts %v != OutcomeBreakdown %v", got, want)
			}
			fin := events[len(events)-1].(CampaignFinished)
			if fin.Counts != want {
				t.Fatalf("CampaignFinished counts %v != OutcomeBreakdown %v", fin.Counts, want)
			}
			if fin.Injected != res.Injected || fin.Cancelled {
				t.Fatalf("CampaignFinished accounting %+v does not match result (injected %d)", fin, res.Injected)
			}

			sn := stats.Snapshot()
			if !sn.Finished || sn.Cancelled || sn.Completed != total {
				t.Fatalf("final snapshot inconsistent: %+v", sn)
			}
			// Per-site tallies must partition the global distribution.
			var siteSum int
			for _, c := range stats.SiteCounts() {
				siteSum += c.Total()
			}
			if siteSum != want.Total() {
				t.Fatalf("site tallies sum to %d trials, want %d", siteSum, want.Total())
			}
		})
	}
}

// TestStreamStatsMatchesBreakdownML: the same tally identity holds on the
// ML-pruned path, where only a subset of points is injected and batch
// verifications interleave with completions.
func TestStreamStatsMatchesBreakdownML(t *testing.T) {
	opts := supTestOptions()
	opts.ML.Pruning = true
	opts.ML.Batch = 4
	opts.Parallelism = 2
	stats := NewStreamStats()
	rec := &eventRecorder{}
	opts.Observer = MultiObserver(stats, rec)

	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	events := rec.all()
	completions, _ := assertWellOrdered(t, events)
	if completions != len(sup.Measured) {
		t.Fatalf("saw %d completions, measured %d", completions, len(sup.Measured))
	}
	var verifications int
	for _, ev := range events {
		if _, ok := ev.(BatchVerified); ok {
			verifications++
		}
	}
	if verifications == 0 {
		t.Fatal("ML campaign emitted no BatchVerified events")
	}
	want := OutcomeBreakdown(sup.Measured)
	if got := stats.Counts(); got != want {
		t.Fatalf("StreamStats counts %v != OutcomeBreakdown %v", got, want)
	}
	fin := events[len(events)-1].(CampaignFinished)
	if fin.Predicted != len(sup.Predicted) {
		t.Fatalf("CampaignFinished.Predicted = %d, want %d", fin.Predicted, len(sup.Predicted))
	}
}

// TestStreamStatsResetsEveryField: one StreamStats observes a sequence of
// campaigns (ffexp), so CampaignStarted must clear everything the previous
// one tallied. The sequence below is an adaptive, sharded, interrupted
// campaign on a faulted fabric — it must move every
// StreamSnapshot field off zero, so a field added without an event here
// fails the first loop and a field the reset misses fails the second.
func TestStreamStatsResetsEveryField(t *testing.T) {
	stats := NewStreamStats()
	clock := time.Unix(1700000000, 0)
	stats.now = func() time.Time { clock = clock.Add(time.Second); return clock }

	res := PointResult{Point: Point{SiteName: "allreduce@solve"}}
	res.Counts[classify.WrongAns] = 3
	var added classify.Counts
	added[classify.Success] = 2
	for _, ev := range []Event{
		CampaignStarted{App: "lu"},
		FaultDomainEvent{Kind: "topology", Spec: "ring"},
		FaultDomainEvent{Kind: "link"}, FaultDomainEvent{Kind: "drop"}, FaultDomainEvent{Kind: "crash"},
		PhaseChanged{Phase: CampaignInjecting, Points: 4},
		ShardLease{Kind: "granted", Worker: "a"}, ShardLease{Kind: "granted", Worker: "b"},
		ShardLease{Kind: "expired", Worker: "b"},
		PointCompleted{Result: res, Completed: 1, Total: 4, FromCheckpoint: true},
		PointCompleted{Result: res, Completed: 2, Total: 4},
		PointSettled{Saved: 5},
		PointRetried{},
		PointQuarantined{Completed: 3, Total: 4},
		BatchVerified{Accuracy: 0.9},
		SnapshotStats{Snapshots: 1, Forked: 2, Replayed: 3, Memoised: 4, Reconverged: 2, AtCheckpoint: 1},
		PhaseChanged{Phase: CampaignRefining},
		PointRefined{Result: res, Added: added, Extra: 2},
		CampaignFinished{Predicted: 1, Cancelled: true},
	} {
		stats.OnEvent(ev)
	}
	before := reflect.ValueOf(stats.Snapshot())
	for i := 0; i < before.NumField(); i++ {
		if before.Field(i).IsZero() {
			t.Errorf("the event sequence leaves StreamSnapshot.%s at zero; extend it", before.Type().Field(i).Name)
		}
	}
	if line := stats.Snapshot().ProgressLine(); !strings.Contains(line, " | cut 2 (1 at checkpoint)") {
		t.Errorf("ProgressLine does not show the checkpoint cuts beside the cut count: %q", line)
	}

	stats.now = func() time.Time { return clock }
	stats.OnEvent(CampaignStarted{App: "mg"})
	after := reflect.ValueOf(stats.Snapshot())
	for i := 0; i < after.NumField(); i++ {
		name := after.Type().Field(i).Name
		if name != "App" && name != "Phase" && !after.Field(i).IsZero() {
			t.Errorf("StreamSnapshot.%s = %v after a second CampaignStarted; the previous campaign's tally leaked", name, after.Field(i))
		}
	}
	if sn := stats.Snapshot(); sn.App != "mg" || sn.Phase != CampaignProfiling || len(stats.SiteCounts()) != 0 {
		t.Errorf("second campaign starts as %q in phase %v with %d sites", sn.App, sn.Phase, len(stats.SiteCounts()))
	}
}

// interruptAndResume runs a supervised campaign with the given options,
// cancelling after cancelAfter completions, then resumes it with a fresh
// engine and observer. It returns the resumed run's result, stats and
// events.
func interruptAndResume(t *testing.T, opts Options, cancelAfter int32) (*SupervisedResult, *StreamStats, []Event) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	interruptOpts := opts
	interruptOpts.Observer = ObserverFunc(func(ev Event) {
		if _, ok := ev.(PointCompleted); ok && done.Add(1) == cancelAfter {
			cancel()
		}
	})
	part, err := NewSupervisor(supTestEngine(t, interruptOpts), SupervisorOptions{
		Workers: 2, Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled {
		t.Fatal("interrupted run not marked Cancelled")
	}

	stats := NewStreamStats()
	rec := &eventRecorder{}
	resumeOpts := opts
	resumeOpts.Observer = MultiObserver(stats, rec)
	res, err := ResumeCampaign(context.Background(), supTestEngine(t, resumeOpts), SupervisorOptions{
		Workers: 4, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled || res.FromCheckpoint == 0 {
		t.Fatalf("resume did not restore progress: %+v", res)
	}
	return res, stats, rec.all()
}

// TestStreamStatsAcrossResumeDirect is the acceptance criterion for the
// direct path: after interrupt and resume, the resumed run's event stream
// replays restored points (FromCheckpoint set, monotonic counts) and its
// StreamStats final distribution equals OutcomeBreakdown of the result —
// which in turn is bit-identical to an uninterrupted run.
func TestStreamStatsAcrossResumeDirect(t *testing.T) {
	opts := supTestOptions()
	opts.Parallelism = 2

	fullOpts := opts
	fullStats := NewStreamStats()
	fullOpts.Observer = fullStats
	full, err := NewSupervisor(supTestEngine(t, fullOpts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Measured) < 4 {
		t.Fatalf("campaign too small to interrupt: %d points", len(full.Measured))
	}

	res, stats, events := interruptAndResume(t, opts, 3)
	completions, _ := assertWellOrdered(t, events)
	restored := 0
	for _, ev := range events {
		if pc, ok := ev.(PointCompleted); ok && pc.FromCheckpoint {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("resumed stream replayed no checkpoint-restored events")
	}
	if restored != res.FromCheckpoint {
		t.Fatalf("replayed %d restored events, result says %d", restored, res.FromCheckpoint)
	}
	if completions != len(res.Measured) {
		t.Fatalf("completions %d != measured %d", completions, len(res.Measured))
	}

	want := OutcomeBreakdown(res.Measured)
	if got := stats.Counts(); got != want {
		t.Fatalf("resumed StreamStats %v != OutcomeBreakdown %v", got, want)
	}
	if got := fullStats.Counts(); got != want {
		t.Fatalf("uninterrupted StreamStats %v != resumed distribution %v", got, want)
	}
}

// TestStreamStatsAcrossResumeML: same identity on the ML-pruned path, where
// the resumed learner replays journalled injections.
func TestStreamStatsAcrossResumeML(t *testing.T) {
	opts := supTestOptions()
	opts.ML.Pruning = true
	opts.ML.Batch = 4

	res, stats, events := interruptAndResume(t, opts, 2)
	completions, _ := assertWellOrdered(t, events)
	if completions != len(res.Measured) {
		t.Fatalf("completions %d != measured %d", completions, len(res.Measured))
	}
	if got, want := stats.Counts(), OutcomeBreakdown(res.Measured); got != want {
		t.Fatalf("resumed ML StreamStats %v != OutcomeBreakdown %v", got, want)
	}
}

// TestLogfObserverAndPointEvents: the Observer stream replaces the removed
// Options.Logf / SupervisorOptions.OnPoint callbacks — LogfObserver renders
// progress lines, and PointCompleted events carry monotonic completed
// counts for per-point progress tracking.
func TestLogfObserverAndPointEvents(t *testing.T) {
	opts := supTestOptions()
	var logLines atomic.Int32
	var mu sync.Mutex
	var completeds []int
	opts.Observer = MultiObserver(
		LogfObserver(func(format string, args ...any) { logLines.Add(1) }),
		ObserverFunc(func(ev Event) {
			if pc, ok := ev.(PointCompleted); ok && !pc.FromCheckpoint {
				mu.Lock()
				completeds = append(completeds, pc.Completed)
				mu.Unlock()
			}
		}),
	)
	sup, err := NewSupervisor(supTestEngine(t, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if logLines.Load() == 0 {
		t.Fatal("LogfObserver received no lines")
	}
	if len(completeds) != len(sup.Measured) {
		t.Fatalf("PointCompleted fired %d times, want %d", len(completeds), len(sup.Measured))
	}
	for i, c := range completeds {
		if c != i+1 {
			t.Fatalf("PointCompleted counts not monotonic: %v", completeds)
		}
	}
}

// TestJSONLObserverStream: the JSONL journal is one valid envelope per
// event with gap-free sequence numbers, opening with CampaignStarted and
// closing with CampaignFinished.
func TestJSONLObserverStream(t *testing.T) {
	var buf bytes.Buffer
	jo := NewJSONLObserver(&buf)
	opts := supTestOptions()
	opts.Observer = jo

	if _, err := supTestEngine(t, opts).RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("suspiciously short event journal: %d lines", len(lines))
	}
	type envelope struct {
		Seq   int             `json:"seq"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	var first, last envelope
	for i, line := range lines {
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if env.Seq != i+1 {
			t.Fatalf("line %d has seq %d (gap or reorder)", i+1, env.Seq)
		}
		if env.Event == "" {
			t.Fatalf("line %d has no event name", i+1)
		}
		if i == 0 {
			first = env
		}
		last = env
	}
	if first.Event != "CampaignStarted" {
		t.Fatalf("journal opens with %q, want CampaignStarted", first.Event)
	}
	if last.Event != "CampaignFinished" {
		t.Fatalf("journal closes with %q, want CampaignFinished", last.Event)
	}
}
