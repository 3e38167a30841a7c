package core

import (
	"fmt"
	"sync"

	"github.com/fastfit/fastfit/internal/classify"
)

// The campaign observation API. Both components that execute a campaign —
// the supervisor (which RunCampaign runs with one worker) and a shard's
// RunRange — publish their progress as a single typed stream of Event
// values delivered to the Observer set in Options.Observer. Structured
// events are what turn a fault-injection harness from a batch job into a
// measurement instrument (FINJ, Netti et al., makes the same argument):
// running outcome distributions, progress bars, JSONL journals for
// dashboards and any future consumer all attach to this one surface instead
// of growing new ad-hoc callbacks. LogfObserver is the bridge to
// printf-style logging.
//
// An event's json tags are its wire form in the JSONL/SSE envelope
// (EventEnvelope); the five events whose stream record is derived from
// their fields rather than equal to them — PointCompleted, PointSettled,
// PointRefined, PointQuarantined, CampaignFinished — carry no tags and are
// rendered by eventJSON.

// Event is one record in a campaign's observation stream. The concrete
// types below form a closed sum: CampaignStarted, FaultDomainEvent,
// PhaseChanged, PointStarted, PointCompleted, PointSettled, PointRefined,
// BatchVerified, PointRetried, PointQuarantined, CheckpointAppended,
// SnapshotStats, ShardLease, CampaignFinished and Note.
type Event interface{ event() }

// Observer receives campaign events. Events are delivered serially (never
// two OnEvent calls at once) and in a consistent order: CampaignStarted
// first, then phase/point/batch events with monotonically increasing
// Completed counts on completion events, then CampaignFinished. Observers
// therefore need no locking of their own unless they are shared across
// campaigns running concurrently. An observer must not block: it runs on
// the campaign's critical path, serialised with point completion.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent calls f(ev).
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// MultiObserver fans one event stream out to several observers, invoking
// them in order. Nil entries are skipped.
func MultiObserver(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	return ObserverFunc(func(ev Event) {
		for _, o := range kept {
			o.OnEvent(ev)
		}
	})
}

// CampaignPhase names a stage of the campaign pipeline for PhaseChanged
// events.
type CampaignPhase int

const (
	// CampaignProfiling: the fault-free profiling run is executing.
	CampaignProfiling CampaignPhase = iota
	// CampaignPruning: semantic and context pruning are reducing the space.
	CampaignPruning
	// CampaignInjecting: points are being injected (no ML loop).
	CampaignInjecting
	// CampaignLearning: the ML injection/learning feedback loop is running.
	CampaignLearning
	// CampaignPredicting: the trained model is predicting remaining points.
	CampaignPredicting
	// CampaignRefining: the adaptive controller is respending reclaimed
	// trials on the points with the widest outcome confidence intervals.
	CampaignRefining
)

var campaignPhaseNames = [...]string{"profile", "prune", "inject", "learn", "predict", "refine"}

func (p CampaignPhase) String() string {
	if p >= 0 && int(p) < len(campaignPhaseNames) {
		return campaignPhaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// MarshalText puts the phase on the wire by name ("learn"), as String
// renders it.
func (p CampaignPhase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// CampaignStarted opens every campaign's event stream.
type CampaignStarted struct {
	App            string `json:"app"`
	Ranks          int    `json:"ranks"`
	TrialsPerPoint int    `json:"trialsPerPoint"`
	MLPruning      bool   `json:"mlPruning"`
}

// FaultDomainEvent reports one element of the campaign's standing network
// fault environment: the topology itself (Kind "topology") and one event per
// structured plan entry (Kind "link", "drop" or "crash"). Emitted directly
// after CampaignStarted, before any point runs, so stream consumers can
// render "links down: N" from the first progress line. Campaigns without a
// network dimension emit none.
type FaultDomainEvent struct {
	Kind  string `json:"kind"`            // "topology", "link", "drop", "crash"
	Spec  string `json:"spec"`            // e.g. "ring", "link:2-3", "drop:0-1:4", "crash:5"
	Rank  int    `json:"rank,omitempty"`  // faulted rank (link/drop/crash)
	Peer  int    `json:"peer,omitempty"`  // link peer (link/drop)
	Count int    `json:"count,omitempty"` // dropped-message budget (drop)
}

// PhaseChanged announces entry into a pipeline stage. Points is the size of
// the injection space at that stage, when known (0 otherwise): the pruned
// point count for CampaignInjecting/CampaignLearning, the remaining
// uninjected count for CampaignPredicting.
type PhaseChanged struct {
	Phase  CampaignPhase `json:"phase"`
	Points int           `json:"points,omitempty"`
}

// PointStarted announces that injection of one point has begun. Under a
// parallel worker pool, PointStarted events from different points
// interleave arbitrarily with other events; only completion events carry
// the ordered Completed count.
type PointStarted struct {
	Index int   `json:"index"`
	Point Point `json:"point"`
}

// PointCompleted carries one point's full injection result. Completed is
// the monotonically increasing count of finished points (measured,
// quarantined and checkpoint-restored alike) and Total the number of points
// scheduled, so Completed/Total is campaign progress. FromCheckpoint marks
// a result replayed from a resumed journal rather than injected in this
// run.
type PointCompleted struct {
	Index          int
	Result         PointResult
	Completed      int
	Total          int
	FromCheckpoint bool
}

// PointSettled reports that the sequential settling rule (adaptive trial
// budgets, Options.Adaptive.Enabled) stopped a point before its full trial
// budget: Trials were run, Saved = Budget - Trials were reclaimed for the
// refinement pass, and Dominant is the settled majority outcome. It
// precedes the point's PointCompleted event; FromCheckpoint marks a
// settled point replayed from a resumed journal.
type PointSettled struct {
	Index          int
	Point          Point
	Trials         int
	Budget         int
	Saved          int
	Dominant       classify.Outcome
	FromCheckpoint bool
}

// PointRefined reports that the refinement pass extended a point that had
// exhausted its budget without settling: Extra additional trials were run
// (their outcome tallies alone are in Added, so streaming consumers can
// merge without double counting) and Result is the point's complete record
// after refinement, superseding the one its PointCompleted carried.
type PointRefined struct {
	Index  int
	Result PointResult
	Added  classify.Counts
	Trials int
	Extra  int
}

// BatchVerified reports one verification round of the ML feedback loop:
// the model's accuracy on a batch it had not trained on, compared against
// the stopping threshold. Measured is the training-set size before the
// batch joined it.
type BatchVerified struct {
	BatchSize int     `json:"batchSize"`
	Measured  int     `json:"measured"`
	Accuracy  float64 `json:"accuracy"`
	Threshold float64 `json:"threshold"`
	Met       bool    `json:"met"`
}

// PointRetried reports one failed harness attempt at a point (panic or
// watchdog expiry). Attempts below MaxAttempts are retried; a failure on
// the final attempt is followed by PointQuarantined.
type PointRetried struct {
	Index       int    `json:"index"`
	Attempt     int    `json:"attempt"`
	MaxAttempts int    `json:"maxAttempts"`
	Err         string `json:"error"`
	Point       Point  `json:"point"`
}

// PointQuarantined reports a poison point withdrawn from the campaign.
// Completed/Total advance exactly as on PointCompleted; FromCheckpoint
// marks a quarantine restored from a resumed journal.
type PointQuarantined struct {
	Point          QuarantinedPoint
	Completed      int
	Total          int
	FromCheckpoint bool
}

// CheckpointAppended reports that a point or quarantine record was durably
// journalled. Records counts appends made by this run.
type CheckpointAppended struct {
	Path    string `json:"path"`
	Index   int    `json:"index"`
	Records int    `json:"records"`
}

// SnapshotStats reports how the campaign's trials came by their outcomes,
// emitted once right before CampaignFinished. Forked trials ran from a
// prefix snapshot, Replayed trials fell back to full replay from t=0
// (multi-fault trials, network fault domains, unreplayable workloads) and
// Memoised trials ran nothing: an earlier trial of the same point had drawn
// the same effective fault and its outcome was reused. The three partition
// the trials of the points this engine injected (plus its RunOnce calls,
// which always execute); Forked + Replayed is the simulated-run total,
// excluding profiling and tape recording. Snapshots counts the distinct
// injection prefixes forked from. Reconverged is not a fourth term but a
// count inside Forked: the forked trials that were cut short because the
// rest of the run was the golden suffix (mpi.RunResult.Reconverged), every
// one of them a SUCCESS. AtCheckpoint counts, inside Reconverged, those cut
// at a checkpoint after the faulted collective rather than at the
// collective itself.
type SnapshotStats struct {
	Snapshots    int `json:"snapshots"`
	Forked       int `json:"forked"`
	Replayed     int `json:"replayed"`
	Memoised     int `json:"memoised"`
	Reconverged  int `json:"reconverged"`
	AtCheckpoint int `json:"atCheckpoint"`
}

// ShardLease reports a distributed lease transition on the coordinator's
// event stream (internal/dist): Kind is "granted", "renewed", "completed"
// or "expired", Lease the lease ID, Worker the shard that held it and
// [Lo, Hi) the leased index range. Single-process campaigns never emit it,
// so serial event streams are unchanged by the distributed service.
type ShardLease struct {
	Kind   string `json:"kind"`
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
}

// CampaignFinished closes the stream of a campaign that ran to completion
// or was cancelled (a campaign aborted by a hard error emits no finish
// event — the error return is the signal). Counts is the outcome breakdown
// over all measured points, byte-identical to
// OutcomeBreakdown(result.Measured).
type CampaignFinished struct {
	App         string
	Injected    int
	Predicted   int
	Quarantined int
	Counts      classify.Counts
	Cancelled   bool
}

// Note is a free-text progress line that has no structured representation
// (profiling retries, pruning summaries). LogfObserver renders it verbatim.
type Note struct {
	Text string `json:"text"`
}

func (CampaignStarted) event()    {}
func (FaultDomainEvent) event()   {}
func (PhaseChanged) event()       {}
func (PointStarted) event()       {}
func (PointCompleted) event()     {}
func (PointSettled) event()       {}
func (PointRefined) event()       {}
func (BatchVerified) event()      {}
func (PointRetried) event()       {}
func (PointQuarantined) event()   {}
func (CheckpointAppended) event() {}
func (SnapshotStats) event()      {}
func (ShardLease) event()         {}
func (CampaignFinished) event()   {}
func (Note) event()               {}

// emitter serialises event delivery to the attached observers. It is the
// engine's single publication point; the supervisor attaches its adapter
// observers to the same emitter so engine- and supervisor-originated events
// share one ordered stream.
type emitter struct {
	mu  sync.Mutex
	obs []Observer
}

func (em *emitter) attach(o Observer) {
	if o == nil {
		return
	}
	em.mu.Lock()
	em.obs = append(em.obs, o)
	em.mu.Unlock()
}

func (em *emitter) active() bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	return len(em.obs) > 0
}

func (em *emitter) emit(ev Event) {
	em.mu.Lock()
	defer em.mu.Unlock()
	for _, o := range em.obs {
		o.OnEvent(ev)
	}
}

// LogfObserver adapts a printf-style logger to the event stream, rendering
// notes, ML verifications and supervision incidents as human-readable
// progress lines (the fastfit CLI's -v output).
func LogfObserver(logf func(format string, args ...any)) Observer {
	return ObserverFunc(func(ev Event) {
		switch ev := ev.(type) {
		case Note:
			logf("%s", ev.Text)
		case BatchVerified:
			logf("ML verification: %.0f%% on batch of %d (threshold %.0f%%)",
				100*ev.Accuracy, ev.BatchSize, 100*ev.Threshold)
		case PointRetried:
			logf("point %d (%v) attempt %d/%d failed: %s",
				ev.Index, ev.Point.String(), ev.Attempt, ev.MaxAttempts, ev.Err)
		case PointQuarantined:
			if !ev.FromCheckpoint {
				logf("point %d (%v) quarantined after %d attempts: %s",
					ev.Point.Index, ev.Point.Point.String(), ev.Point.Attempts, ev.Point.Err)
			}
		}
	})
}
