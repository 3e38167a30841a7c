package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/core"
)

// Outside-only tracing: every span here is opened and closed by the
// benchmark, around a public call into a layer or between two events of the
// public Observer stream. Nothing inside the program is instrumented, so a
// traced run costs one timestamp per event and the spans stay valid across
// any change that keeps the public API.

// span is one timed interval. Spans of one campaign share Campaign; Parent
// is the span that caused this one (0 for a campaign's root).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Campaign int     `json:"campaign"`
	Name     string  `json:"name"`
	StartMS  float64 `json:"startMs"`
	EndMS    float64 `json:"endMs"`
	SelfMS   float64 `json:"selfMs"`
}

// tracer keeps spans and boundary counts in memory until the run ends. Its
// methods are safe for the harness goroutine and the engines' observer
// callbacks to share, and do nothing on a nil tracer, so untraced runs take
// the same code path with tracing off.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int{}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Millisecond) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, campaign int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name, StartMS: t.now(), EndMS: -1})
	return id
}

// end closes a span; closing twice or closing id 0 is a no-op.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id-1].EndMS < 0 {
		t.spans[id-1].EndMS = t.now()
	}
}

func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// finish closes any span left open (a failed campaign) and fills in every
// span's self time: its duration minus the part of that interval its child
// spans cover — children may overlap (two workers' points), so the cover is
// the union of their intervals.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	children := map[int][]span{}
	for i := range t.spans {
		if t.spans[i].EndMS < 0 {
			t.spans[i].EndMS = now
		}
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], t.spans[i])
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartMS < kids[b].StartMS })
		covered, edge := 0.0, s.StartMS
		for _, k := range kids {
			lo, hi := k.StartMS, k.EndMS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndMS {
				hi = s.EndMS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfMS = (s.EndMS - s.StartMS) - covered
	}
	return t.spans
}

// durations returns the duration in ms of every finished span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.EndMS-s.StartMS)
		}
	}
	return out
}

// perCampaign sums, per campaign, the durations of the spans with one of
// the given names and returns one total per campaign that has any.
func perCampaign(spans []span, names ...string) []float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				sums[s.Campaign] += s.EndMS - s.StartMS
			}
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// spanSummary is one row of the trace file's per-name table.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
	P50MS   float64 `json:"p50Ms"`
	P95MS   float64 `json:"p95Ms"`
}

func summarize(spans []span) []spanSummary {
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndMS - s.StartMS
		sum.Count++
		sum.TotalMS += d
		sum.SelfMS += s.SelfMS
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.P50MS = median(durs[name])
		sum.P95MS = percentile(durs[name], 0.95)
		out = append(out, *sum)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// traceFile is what -trace-out writes when the run ends: the per-name table
// and the boundary counts over every traced campaign, and the first traced
// campaign's spans in full, one per line, as a worked example of the tree.
// (Every campaign's spans would be 8,000 lines on the sharded workload.)
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Host     hostInfo          `json:"host"`
	Summary  []spanSummary     `json:"summary"`
	Counts   map[string]int    `json:"counts"`
	Notes    []string          `json:"notes,omitempty"`
	Spans    []json.RawMessage `json:"spansOfFirstCampaign"`
}

func writeTraceFile(path string, tf traceFile, spans []span) error {
	for _, s := range spans {
		if s.Campaign != 1 {
			continue
		}
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("encoding trace: %w", err)
		}
		tf.Spans = append(tf.Spans, line)
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// campaignObserver turns one engine's (or one coordinator's, or one
// shard's) public event stream into child spans of a campaign: a span per
// pipeline phase between PhaseChanged events, a span per point between its
// PointStarted and PointCompleted, a span per shard lease between granted
// and completed, and counts at the same boundaries. Events of one stream
// arrive serially, so it needs no lock of its own; the tracer has one.
type campaignObserver struct {
	tr       *tracer
	campaign int
	parent   int    // the harness's driver span
	prefix   string // "" for the campaign's own stream, "shard:" for a shard's

	phase  int         // open phase span
	points map[int]int // open point spans by injection index
	leases map[string]int
}

func newCampaignObserver(tr *tracer, campaign, parent int, prefix string) *campaignObserver {
	return &campaignObserver{tr: tr, campaign: campaign, parent: parent, prefix: prefix,
		points: map[int]int{}, leases: map[string]int{}}
}

func (o *campaignObserver) OnEvent(ev core.Event) {
	switch ev := ev.(type) {
	case core.PhaseChanged:
		o.tr.end(o.phase)
		o.phase = o.tr.begin(o.prefix+"phase:"+ev.Phase.String(), o.parent, o.campaign)
	case core.PointStarted:
		o.points[ev.Index] = o.tr.begin(o.prefix+"point", o.phaseOrParent(), o.campaign)
	case core.PointCompleted:
		o.tr.end(o.points[ev.Index])
		delete(o.points, ev.Index)
		o.tr.count(o.prefix+"points_completed", 1)
		o.tr.count(o.prefix+"trials_completed", len(ev.Result.Trials))
	case core.PointSettled:
		o.tr.count(o.prefix+"points_settled", 1)
	case core.PointRefined:
		o.tr.count(o.prefix+"points_refined", 1)
		o.tr.count(o.prefix+"trials_completed", ev.Extra)
	case core.BatchVerified:
		o.tr.count(o.prefix+"batches_verified", 1)
	case core.CheckpointAppended:
		o.tr.count(o.prefix+"checkpoint_appends", 1)
	case core.PointRetried:
		o.tr.count(o.prefix+"point_retries", 1)
	case core.PointQuarantined:
		o.tr.count(o.prefix+"points_quarantined", 1)
	case core.ShardLease:
		switch ev.Kind {
		case "granted":
			o.leases[ev.Lease] = o.tr.begin("lease", o.parent, o.campaign)
			o.tr.count("leases_granted", 1)
		case "completed", "expired":
			o.tr.end(o.leases[ev.Lease])
			delete(o.leases, ev.Lease)
			o.tr.count("leases_"+ev.Kind, 1)
		}
	case core.CampaignFinished:
		o.tr.end(o.phase)
		o.phase = 0
	}
}

func (o *campaignObserver) phaseOrParent() int {
	if o.phase != 0 {
		return o.phase
	}
	return o.parent
}
