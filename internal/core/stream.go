package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/classify"
)

// StreamStats is an Observer that maintains running campaign statistics
// with O(1) work per event: the live outcome distribution, per-site error
// rates, progress, injection throughput and an ETA. It is the streaming
// counterpart of the batch accounting in CampaignResult — when the
// campaign finishes, Counts() is exactly OutcomeBreakdown of the returned
// Measured slice (checkpoint-restored points included, quarantined points
// excluded).
//
// A StreamStats resets itself on every CampaignStarted event, so one
// instance can observe a sequence of campaigns (as ffexp does) and always
// reports the current one.
type StreamStats struct {
	now func() time.Time // injectable clock for tests

	mu sync.Mutex
	// sn holds every counter once, in the shape Snapshot returns it; the
	// fields Snapshot derives (ErrorRate, PointsPerSec, ETA, Elapsed) stay
	// zero here. CampaignStarted resets it by assignment.
	sn           StreamSnapshot
	start        time.Time
	sites        map[string]classify.Counts
	injected     int             // measured in this run (excludes checkpoint restores)
	shardWorkers map[string]bool // shards ever granted a lease (ShardLease)
}

// NewStreamStats builds an empty statistics observer.
func NewStreamStats() *StreamStats {
	return &StreamStats{now: time.Now, sites: map[string]classify.Counts{}}
}

// OnEvent folds one event into the running statistics.
func (s *StreamStats) OnEvent(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := &s.sn
	switch ev := ev.(type) {
	case CampaignStarted:
		*sn = StreamSnapshot{App: ev.App, Phase: CampaignProfiling}
		s.start = s.now()
		s.sites = map[string]classify.Counts{}
		s.injected = 0
		s.shardWorkers = nil
	case FaultDomainEvent:
		switch ev.Kind {
		case "topology":
			sn.Topology = ev.Spec
		case "link":
			sn.LinksDown++
		case "drop":
			sn.DropBursts++
		case "crash":
			sn.NodesDown++
		}
	case PhaseChanged:
		sn.Phase = ev.Phase
		if ev.Points > 0 && (ev.Phase == CampaignInjecting || ev.Phase == CampaignLearning) {
			sn.Total = ev.Points
		}
	case PointCompleted:
		sn.Completed, sn.Total = ev.Completed, ev.Total
		s.merge(ev.Result.Point.SiteName, ev.Result.Counts)
		if ev.FromCheckpoint {
			sn.FromCheckpoint++
		} else {
			s.injected++
		}
	case PointSettled:
		sn.Settled++
		sn.TrialsSaved += ev.Saved
	case PointRefined:
		// Added holds only the extra trials, so merging keeps Counts equal
		// to OutcomeBreakdown over the final Measured slice.
		s.merge(ev.Result.Point.SiteName, ev.Added)
		sn.Refined++
		sn.TrialsRefined += ev.Extra
	case PointQuarantined:
		sn.Completed, sn.Total = ev.Completed, ev.Total
		sn.Quarantined++
	case PointRetried:
		sn.Retries++
	case BatchVerified:
		sn.VerifyAccuracy = ev.Accuracy
	case SnapshotStats:
		sn.Snapshots, sn.Forked, sn.Replayed, sn.Memoised, sn.Reconverged, sn.AtCheckpoint = ev.Snapshots, ev.Forked, ev.Replayed, ev.Memoised, ev.Reconverged, ev.AtCheckpoint
	case ShardLease:
		switch ev.Kind {
		case "granted":
			if s.shardWorkers == nil {
				s.shardWorkers = map[string]bool{}
			}
			s.shardWorkers[ev.Worker] = true
			sn.ShardWorkers = len(s.shardWorkers)
			sn.LeasesActive++
		case "completed":
			sn.LeasesActive--
		case "expired":
			sn.LeasesActive--
			sn.LeasesExpired++
		}
	case CampaignFinished:
		sn.Finished = true
		sn.Cancelled = ev.Cancelled
		sn.Predicted = ev.Predicted
	}
}

// merge adds one point's tallies to the campaign and per-site distributions.
func (s *StreamStats) merge(site string, c classify.Counts) {
	s.sn.Counts.Merge(c)
	sc := s.sites[site]
	sc.Merge(c)
	s.sites[site] = sc
}

// Counts returns the running outcome distribution over completed points.
func (s *StreamStats) Counts() classify.Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sn.Counts
}

// SiteCounts returns a copy of the per-call-site outcome tallies.
func (s *StreamStats) SiteCounts() map[string]classify.Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]classify.Counts, len(s.sites))
	for k, v := range s.sites {
		out[k] = v
	}
	return out
}

// StreamSnapshot is a point-in-time view of a campaign's running
// statistics.
type StreamSnapshot struct {
	App            string
	Phase          CampaignPhase
	Completed      int
	Total          int
	FromCheckpoint int
	Quarantined    int
	Retries        int
	Predicted      int
	Settled        int // points stopped early by the settling rule
	TrialsSaved    int // budgeted trials reclaimed by early stopping
	Refined        int // points extended by the refinement pass
	TrialsRefined  int // extra trials respent by the refinement pass
	Snapshots      int // distinct injection prefixes forked from
	Forked         int // trials run from a prefix snapshot
	Replayed       int // trials that fell back to full replay
	Memoised       int // trials that reused an earlier trial's outcome
	Reconverged    int // forked trials cut short as the golden suffix
	AtCheckpoint   int // of which cut at a later checkpoint
	Topology       string
	LinksDown      int // standing permanent link failures in the fault plan
	DropBursts     int // standing transient drop bursts in the fault plan
	NodesDown      int // standing at-start node crashes in the fault plan
	ShardWorkers   int // distinct worker shards ever granted a lease
	LeasesActive   int // leases granted and not yet completed or expired
	LeasesExpired  int // leases reaped past their deadline and re-leased
	Counts         classify.Counts
	ErrorRate      float64
	VerifyAccuracy float64
	PointsPerSec   float64
	ETA            time.Duration
	Elapsed        time.Duration
	Finished       bool
	Cancelled      bool
}

// Snapshot captures the current statistics.
func (s *StreamStats) Snapshot() StreamSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.sn
	sn.ErrorRate = sn.Counts.ErrorRate()
	if !s.start.IsZero() {
		sn.Elapsed = s.now().Sub(s.start)
	}
	// Throughput counts only points injected in this run: restored points
	// arrive in a burst at resume and would otherwise inflate the rate and
	// collapse the ETA.
	if sn.Elapsed > 0 && s.injected > 0 {
		sn.PointsPerSec = float64(s.injected) / sn.Elapsed.Seconds()
		if remaining := sn.Total - sn.Completed; remaining > 0 {
			sn.ETA = time.Duration(float64(remaining) / sn.PointsPerSec * float64(time.Second))
		}
	}
	return sn
}

// ProgressLine renders the snapshot as a one-line progress report.
func (sn StreamSnapshot) ProgressLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", sn.App, sn.Phase)
	if sn.Total > 0 {
		fmt.Fprintf(&sb, " %d/%d (%.0f%%)", sn.Completed, sn.Total, 100*float64(sn.Completed)/float64(sn.Total))
	}
	if sn.Counts.Total() > 0 {
		fmt.Fprintf(&sb, " | err %.1f%%", 100*sn.ErrorRate)
	}
	if sn.LinksDown > 0 || sn.DropBursts > 0 || sn.NodesDown > 0 {
		fmt.Fprintf(&sb, " | links down: %d", sn.LinksDown)
		if sn.DropBursts > 0 {
			fmt.Fprintf(&sb, ", drop bursts: %d", sn.DropBursts)
		}
		if sn.NodesDown > 0 {
			fmt.Fprintf(&sb, ", nodes down: %d", sn.NodesDown)
		}
	}
	if sn.ShardWorkers > 0 {
		fmt.Fprintf(&sb, " | shards %d (%d leases", sn.ShardWorkers, sn.LeasesActive)
		if sn.LeasesExpired > 0 {
			fmt.Fprintf(&sb, ", %d re-leased", sn.LeasesExpired)
		}
		sb.WriteString(")")
	}
	if sn.PointsPerSec > 0 {
		fmt.Fprintf(&sb, " | %.1f pts/s", sn.PointsPerSec)
	}
	if sn.ETA > 0 {
		fmt.Fprintf(&sb, " | ETA %v", sn.ETA.Round(time.Second))
	}
	if sn.Settled > 0 {
		fmt.Fprintf(&sb, " | settled %d (saved %d)", sn.Settled, sn.TrialsSaved-sn.TrialsRefined)
	}
	if sn.Forked > 0 {
		fmt.Fprintf(&sb, " | forked %d/%d (%d snapshots)", sn.Forked, sn.Forked+sn.Replayed, sn.Snapshots)
	}
	if sn.Memoised > 0 {
		fmt.Fprintf(&sb, " | memo %d", sn.Memoised)
	}
	if sn.Reconverged > 0 {
		fmt.Fprintf(&sb, " | cut %d", sn.Reconverged)
		if sn.AtCheckpoint > 0 {
			fmt.Fprintf(&sb, " (%d at checkpoint)", sn.AtCheckpoint)
		}
	}
	if sn.Quarantined > 0 {
		fmt.Fprintf(&sb, " | quarantined %d", sn.Quarantined)
	}
	if sn.Finished {
		if sn.Cancelled {
			sb.WriteString(" | interrupted")
		} else {
			sb.WriteString(" | done")
			if sn.Predicted > 0 {
				fmt.Fprintf(&sb, " (%d predicted)", sn.Predicted)
			}
		}
	}
	return sb.String()
}

// JSONLObserver appends every event as one JSON line — the machine-readable
// campaign journal live dashboards tail. Each line is an envelope
// {"seq":N,"event":"PointCompleted","data":{...}}; seq increases by one per
// event so consumers detect gaps. Point results are written as outcome
// tallies rather than full trial lists to keep the stream compact.
type JSONLObserver struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	seq int
	err error
}

// NewJSONLObserver writes the event stream to w.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{w: w}
}

// CreateJSONLObserver creates (or truncates) the file at path and streams
// events into it. Close flushes and closes the file.
func CreateJSONLObserver(path string) (*JSONLObserver, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating event stream %s: %w", path, err)
	}
	return &JSONLObserver{w: f, c: f}, nil
}

// OnEvent encodes and appends one event. The first write error is retained
// (see Err) and subsequent events are dropped: an observer must not take
// down the campaign it is watching.
func (o *JSONLObserver) OnEvent(ev Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	o.seq++
	line, err := EventEnvelope(o.seq, ev)
	if err != nil {
		o.err = err
		return
	}
	if _, err := o.w.Write(append(line, '\n')); err != nil {
		o.err = err
	}
}

// EventEnvelope renders one event in the wire envelope
// {"seq":N,"event":"PointCompleted","data":{...}} shared by JSONLObserver
// lines and the distributed coordinator's SSE frames (no trailing
// newline). seq is the consumer's gap-detection counter: it must increase
// by exactly one per event on any single stream.
func EventEnvelope(seq int, ev Event) ([]byte, error) {
	kind, data := eventJSON(ev)
	return json.Marshal(struct {
		Seq   int    `json:"seq"`
		Event string `json:"event"`
		Data  any    `json:"data"`
	}{seq, kind, data})
}

// Err returns the first write or encoding error, if any.
func (o *JSONLObserver) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// Close closes the underlying file when the observer owns one.
func (o *JSONLObserver) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.c == nil {
		return o.err
	}
	err := o.c.Close()
	o.c = nil
	if o.err == nil {
		o.err = err
	}
	return o.err
}

func countsJSON(c classify.Counts) map[string]int {
	out := make(map[string]int, len(c))
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		if c[o] > 0 {
			out[o.String()] = c[o]
		}
	}
	return out
}

// eventJSON maps an event to its envelope name and wire representation. An
// event's tagged fields are its wire form; only the five whose stream
// record is derived — tallies by outcome name and an error rate in place
// of a full trial list, a flattened quarantine — are rendered here.
func eventJSON(ev Event) (string, any) {
	var data any = ev
	switch ev := ev.(type) {
	case PointCompleted:
		data = struct {
			Index          int            `json:"index"`
			Completed      int            `json:"completed"`
			Total          int            `json:"total"`
			FromCheckpoint bool           `json:"fromCheckpoint,omitempty"`
			ErrorRate      float64        `json:"errorRate"`
			Counts         map[string]int `json:"counts"`
			Point          Point          `json:"point"`
		}{ev.Index, ev.Completed, ev.Total, ev.FromCheckpoint,
			ev.Result.ErrorRate(), countsJSON(ev.Result.Counts), ev.Result.Point}
	case PointSettled:
		data = struct {
			Index          int    `json:"index"`
			Trials         int    `json:"trials"`
			Budget         int    `json:"budget"`
			Saved          int    `json:"saved"`
			Dominant       string `json:"dominant"`
			FromCheckpoint bool   `json:"fromCheckpoint,omitempty"`
			Point          Point  `json:"point"`
		}{ev.Index, ev.Trials, ev.Budget, ev.Saved, ev.Dominant.String(), ev.FromCheckpoint, ev.Point}
	case PointRefined:
		data = struct {
			Index     int            `json:"index"`
			Trials    int            `json:"trials"`
			Extra     int            `json:"extra"`
			ErrorRate float64        `json:"errorRate"`
			Added     map[string]int `json:"added"`
			Point     Point          `json:"point"`
		}{ev.Index, ev.Trials, ev.Extra, ev.Result.ErrorRate(), countsJSON(ev.Added), ev.Result.Point}
	case PointQuarantined:
		data = struct {
			Index          int    `json:"index"`
			Attempts       int    `json:"attempts"`
			Err            string `json:"error"`
			Completed      int    `json:"completed"`
			Total          int    `json:"total"`
			FromCheckpoint bool   `json:"fromCheckpoint,omitempty"`
			Point          Point  `json:"point"`
		}{ev.Point.Index, ev.Point.Attempts, ev.Point.Err, ev.Completed, ev.Total,
			ev.FromCheckpoint, ev.Point.Point}
	case CampaignFinished:
		data = struct {
			App         string         `json:"app"`
			Injected    int            `json:"injected"`
			Predicted   int            `json:"predicted"`
			Quarantined int            `json:"quarantined"`
			Cancelled   bool           `json:"cancelled,omitempty"`
			ErrorRate   float64        `json:"errorRate"`
			Counts      map[string]int `json:"counts"`
		}{ev.App, ev.Injected, ev.Predicted, ev.Quarantined, ev.Cancelled,
			ev.Counts.ErrorRate(), countsJSON(ev.Counts)}
	}
	return reflect.TypeOf(ev).Name(), data
}
