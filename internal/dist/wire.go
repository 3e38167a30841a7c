// Package dist promotes the in-process campaign supervisor to a
// distributed service: a coordinator leases checkpoint index ranges (keyed
// by campaign fingerprint) to worker shards over an HTTP JSON API, shards
// run the existing supervisor over their leased range (core.RunRange) and
// stream journal batches back, and a deterministic merger replays the
// collected records through the ordinary supervised path so the final
// campaign JSON and checkpoint journal are byte-identical to a
// single-process run. Leases carry deadlines on an injected clock; a dead
// shard's range is re-leased and resumed from its last acked journal
// entry. The coordinator's typed event feed fans out to any number of SSE
// subscribers with per-subscriber drop accounting — a slow dashboard never
// blocks the data plane.
package dist

import (
	"encoding/json"
	"fmt"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/core"
)

// Wire messages. Every decoder validates what it accepts and returns a
// descriptive error on malformed input — these functions face the network
// and are fuzzed (see fuzz_test.go); they must never panic. Journal
// records reuse the checkpoint journal's record payloads verbatim
// (core.EncodeJournalPoint), so a shard's stream is literally a slice of
// the journal the merger writes, minus the file's length/CRC frame.

// CampaignSpec describes the campaign a coordinator is serving — enough
// for a zero-configuration worker to rebuild the identical engine.
// Fingerprint and Points are the coordinator's own plan, which the worker
// cross-checks against its local plan before running anything.
type CampaignSpec struct {
	App         string       `json:"app"`
	Config      apps.Config  `json:"config"`
	Options     core.Options `json:"options"`
	Fingerprint string       `json:"fingerprint"`
	Points      int          `json:"points"`
}

// DecodeCampaignSpec parses and validates a campaign spec.
func DecodeCampaignSpec(data []byte) (CampaignSpec, error) {
	var s CampaignSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return CampaignSpec{}, fmt.Errorf("campaign spec: %w", err)
	}
	if s.App == "" {
		return CampaignSpec{}, fmt.Errorf("campaign spec: missing app name")
	}
	if s.Fingerprint == "" {
		return CampaignSpec{}, fmt.Errorf("campaign spec: missing fingerprint")
	}
	if s.Points < 0 {
		return CampaignSpec{}, fmt.Errorf("campaign spec: negative point count %d", s.Points)
	}
	return s, nil
}

// LeaseRequest asks the coordinator for a range of injection indexes.
type LeaseRequest struct {
	// Worker names the requesting shard (for lease accounting and events).
	Worker string `json:"worker"`
	// Fingerprint, when non-empty, must match the coordinator's campaign:
	// a shard that planned a different campaign must not receive work.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// DecodeLeaseRequest parses and validates a lease request.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var r LeaseRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return LeaseRequest{}, fmt.Errorf("lease request: %w", err)
	}
	if r.Worker == "" {
		return LeaseRequest{}, fmt.Errorf("lease request: missing worker name")
	}
	return r, nil
}

// LeaseGrant is the coordinator's answer to a LeaseRequest. Exactly one of
// three shapes: a grant (LeaseID set, [Lo,Hi) to run), NoWork (nothing
// leasable right now — poll again; the ML frontier may still advance), or
// Finished (the campaign is complete — the worker exits).
type LeaseGrant struct {
	LeaseID string `json:"leaseId,omitempty"`
	Lo      int    `json:"lo,omitempty"`
	Hi      int    `json:"hi,omitempty"`
	// Skip lists indexes inside [Lo,Hi) already recorded by a previous
	// holder of this range — a re-leased range resumes after them.
	Skip []int `json:"skip,omitempty"`
	// TTLSeconds is the lease deadline, relative so the worker needs no
	// clock agreement with the coordinator: renew before it elapses.
	TTLSeconds  float64 `json:"ttlSeconds,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Total       int     `json:"total,omitempty"` // campaign index-space size
	NoWork      bool    `json:"noWork,omitempty"`
	Finished    bool    `json:"finished,omitempty"`
}

// DecodeLeaseGrant parses and validates a lease grant.
func DecodeLeaseGrant(data []byte) (LeaseGrant, error) {
	var g LeaseGrant
	if err := json.Unmarshal(data, &g); err != nil {
		return LeaseGrant{}, fmt.Errorf("lease grant: %w", err)
	}
	if g.NoWork || g.Finished {
		return g, nil
	}
	if g.LeaseID == "" {
		return LeaseGrant{}, fmt.Errorf("lease grant: missing lease id")
	}
	if g.Lo < 0 || g.Hi < g.Lo {
		return LeaseGrant{}, fmt.Errorf("lease grant %s: invalid range [%d,%d)", g.LeaseID, g.Lo, g.Hi)
	}
	if g.Total < g.Hi {
		return LeaseGrant{}, fmt.Errorf("lease grant %s: range [%d,%d) outside campaign of %d points",
			g.LeaseID, g.Lo, g.Hi, g.Total)
	}
	if g.TTLSeconds <= 0 {
		return LeaseGrant{}, fmt.Errorf("lease grant %s: non-positive ttl %g", g.LeaseID, g.TTLSeconds)
	}
	for _, idx := range g.Skip {
		if idx < g.Lo || idx >= g.Hi {
			return LeaseGrant{}, fmt.Errorf("lease grant %s: skip index %d outside range [%d,%d)",
				g.LeaseID, idx, g.Lo, g.Hi)
		}
	}
	return g, nil
}

// RenewRequest extends a lease's deadline.
type RenewRequest struct {
	LeaseID string `json:"leaseId"`
	Worker  string `json:"worker"`
}

// DecodeRenewRequest parses and validates a renew request.
func DecodeRenewRequest(data []byte) (RenewRequest, error) {
	var r RenewRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return RenewRequest{}, fmt.Errorf("renew request: %w", err)
	}
	if r.LeaseID == "" {
		return RenewRequest{}, fmt.Errorf("renew request: missing lease id")
	}
	return r, nil
}

// RenewReply acknowledges a renewal, or reports the lease already expired
// (its range has been reclaimed; the worker must abandon it).
type RenewReply struct {
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
	Expired    bool    `json:"expired,omitempty"`
}

// DecodeRenewReply parses and validates a renew reply.
func DecodeRenewReply(data []byte) (RenewReply, error) {
	var r RenewReply
	if err := json.Unmarshal(data, &r); err != nil {
		return RenewReply{}, fmt.Errorf("renew reply: %w", err)
	}
	if !r.Expired && r.TTLSeconds <= 0 {
		return RenewReply{}, fmt.Errorf("renew reply: non-positive ttl %g on a live lease", r.TTLSeconds)
	}
	return r, nil
}

// JournalBatch streams completed work for one lease: checkpoint-journal
// lines exactly as the shard's supervisor produced them. Done marks the
// lease's whole range executed (quarantines ride on the final batch).
type JournalBatch struct {
	LeaseID     string            `json:"leaseId"`
	Worker      string            `json:"worker"`
	Records     []json.RawMessage `json:"records,omitempty"`
	Quarantines []json.RawMessage `json:"quarantines,omitempty"`
	Done        bool              `json:"done,omitempty"`
}

// DecodeJournalBatch parses a journal batch, decoding and validating every
// record line. It returns the typed records alongside the batch envelope.
func DecodeJournalBatch(data []byte) (JournalBatch, []core.PointRecord, []core.QuarantinedPoint, error) {
	var b JournalBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return JournalBatch{}, nil, nil, fmt.Errorf("journal batch: %w", err)
	}
	if b.LeaseID == "" {
		return JournalBatch{}, nil, nil, fmt.Errorf("journal batch: missing lease id")
	}
	recs := make([]core.PointRecord, 0, len(b.Records))
	for i, line := range b.Records {
		rec, err := core.DecodeJournalPoint(line)
		if err != nil {
			return JournalBatch{}, nil, nil, fmt.Errorf("journal batch record %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	quars := make([]core.QuarantinedPoint, 0, len(b.Quarantines))
	for i, line := range b.Quarantines {
		q, err := core.DecodeJournalQuarantine(line)
		if err != nil {
			return JournalBatch{}, nil, nil, fmt.Errorf("journal batch quarantine %d: %w", i, err)
		}
		quars = append(quars, q)
	}
	return b, recs, quars, nil
}

// JournalReply acknowledges a batch. Acked counts the indexes this batch
// newly settled, by a record or a quarantine; Expired reports the lease is
// no longer held (the batch was discarded — its range has been or will be
// re-leased).
type JournalReply struct {
	Acked   int  `json:"acked"`
	Expired bool `json:"expired,omitempty"`
}

// EventFrame is one SSE data payload: the same seq-numbered envelope a
// JSONLObserver writes per line (core.EventEnvelope). Seq increases by
// exactly one per frame on the coordinator's feed, so a subscriber detects
// its own drops as seq gaps.
type EventFrame struct {
	Seq   int             `json:"seq"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// DecodeEventFrame parses and validates one event frame.
func DecodeEventFrame(data []byte) (EventFrame, error) {
	var f EventFrame
	if err := json.Unmarshal(data, &f); err != nil {
		return EventFrame{}, fmt.Errorf("event frame: %w", err)
	}
	if f.Seq < 1 {
		return EventFrame{}, fmt.Errorf("event frame: non-positive seq %d", f.Seq)
	}
	if f.Event == "" {
		return EventFrame{}, fmt.Errorf("event frame: missing event name")
	}
	return f, nil
}

// LeaseStatus is one active lease in a StatusReply.
type LeaseStatus struct {
	LeaseID    string  `json:"leaseId"`
	Worker     string  `json:"worker"`
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	Remaining  int     `json:"remaining"` // indexes in [Lo,Hi) not yet acked
	TTLSeconds float64 `json:"ttlSeconds"`
}

// SubscriberStatus is one SSE subscriber's delivery accounting.
type SubscriberStatus struct {
	ID      int `json:"id"`
	Sent    int `json:"sent"`
	Dropped int `json:"dropped"`
}

// StatusReply is the coordinator's /v1/status answer.
type StatusReply struct {
	App           string             `json:"app"`
	Fingerprint   string             `json:"fingerprint"`
	Points        int                `json:"points"`
	Needed        int                `json:"needed"` // current lease frontier
	FrontierDone  bool               `json:"frontierDone"`
	Recorded      int                `json:"recorded"`
	Quarantined   int                `json:"quarantined"`
	Complete      bool               `json:"complete"`
	Merged        bool               `json:"merged"`
	LeasesGranted int                `json:"leasesGranted"`
	LeasesExpired int                `json:"leasesExpired"`
	Progress      string             `json:"progress"`        // StreamStats ProgressLine
	Epoch         int                `json:"epoch"`           // process generation (bumped per WAL recovery)
	EventSeq      int                `json:"eventSeq"`        // last published event-feed seq
	Store         string             `json:"store,omitempty"` // WAL path when the campaign is durable
	Leases        []LeaseStatus      `json:"leases,omitempty"`
	Subscribers   []SubscriberStatus `json:"subscribers,omitempty"`
}

// CampaignInfo is one registry entry in a CampaignsReply.
type CampaignInfo struct {
	Fingerprint string `json:"fingerprint"`
	App         string `json:"app"`
	Points      int    `json:"points"`
	Recorded    int    `json:"recorded"`
	Quarantined int    `json:"quarantined"`
	Complete    bool   `json:"complete"`
	Merged      bool   `json:"merged"`
	Epoch       int    `json:"epoch"`
}

// CampaignsReply is the multi-campaign registry listing (GET /v1/campaigns).
type CampaignsReply struct {
	Store     string         `json:"store,omitempty"`
	Campaigns []CampaignInfo `json:"campaigns"`
}

// DecodeCampaignsReply parses and validates a registry listing.
func DecodeCampaignsReply(data []byte) (CampaignsReply, error) {
	var r CampaignsReply
	if err := json.Unmarshal(data, &r); err != nil {
		return CampaignsReply{}, fmt.Errorf("campaigns reply: %w", err)
	}
	for i, c := range r.Campaigns {
		if c.Fingerprint == "" {
			return CampaignsReply{}, fmt.Errorf("campaigns reply: entry %d missing fingerprint", i)
		}
	}
	return r, nil
}
