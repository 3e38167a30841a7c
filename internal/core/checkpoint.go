package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/recfile"
)

// A campaign checkpoint is an append-only journal in the shared record
// grammar (internal/recfile): a header record binding the file to one
// campaign fingerprint, followed by one record per completed (or
// quarantined) injection point. recfile.Log owns the file lifecycle —
// atomic creation, CRC-validated load, torn-tail repair, single-write
// appends; this file keeps the record kinds and how they fold into a
// CheckpointState.

// checkpointVersion identifies the journal's on-disk schema. Version 1 was
// plain JSONL with no length/CRC frame; it is refused, not dual-read.
const checkpointVersion = 2

// ErrCheckpointMismatch reports a checkpoint whose fingerprint does not
// match the campaign being run — a stale journal from a different app,
// configuration, seed or pruning setup must never be merged.
var ErrCheckpointMismatch = errors.New("checkpoint fingerprint mismatch")

// ErrCheckpointVersion reports a journal written in a schema this build
// does not read. Finish that campaign with the build that started it, or
// start it over.
var ErrCheckpointVersion = errors.New("unsupported checkpoint version")

// CampaignFingerprint identifies one campaign for checkpoint purposes: the
// application, its configuration, every option that shapes the injection
// space or the per-trial seeds, and the pruned point list itself. Raw
// program counters and stack hashes are deliberately excluded — they are
// stable within a process but not across rebuilds, and a checkpoint must
// survive a restart of the tool.
func CampaignFingerprint(appName string, cfg apps.Config, opts Options, points []Point) string {
	o := opts.withDefaults()
	h := fnv.New64a()
	// The v1 tag versions the fingerprint recipe, not the journal file:
	// WAL store directories are named by this value.
	fmt.Fprintf(h, "v1|app=%s|ranks=%d|scale=%d|iters=%d|appseed=%d|",
		appName, cfg.Ranks, cfg.Scale, cfg.Iters, cfg.Seed)
	fmt.Fprintf(h, "trials=%d|seed=%d|policy=%d|sem=%t|ctx=%t|ml=%t|",
		o.TrialsPerPoint, o.Seed, o.Policy, o.Pruning.Semantic, o.Pruning.Context, o.ML.Pruning)
	// trees=0|depth=0: the forest bounds were options nobody set; the
	// literals keep every existing fingerprint (WAL directory).
	fmt.Fprintf(h, "acc=%g|batch=%d|mintrain=%d|levels=%d|trees=0|depth=0|",
		o.AccuracyThreshold, o.ML.Batch, o.ML.MinTrain, o.Levels)
	fmt.Fprintf(h, "adaptive=%t|conf=%g|", o.Adaptive.Enabled, o.Confidence)
	// The network fault domain is appended only when set, so fingerprints
	// of classic campaigns (and their existing checkpoints) are unchanged.
	if o.Topology != "" || len(o.Network.Plan) > 0 {
		fmt.Fprintf(h, "topo=%s|netplan=%s|", o.Topology, fault.NetPlanString(o.Network.Plan))
	}
	fmt.Fprintf(h, "npoints=%d|", len(points))
	for _, p := range points {
		fmt.Fprintf(h, "%d/%s/%d/%d/%d/%d|", p.Rank, p.SiteName, int(p.Type), p.Invocation, p.NInv, int(p.Phase))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type ckptHeader struct {
	Kind        string `json:"kind"` // "header"
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	App         string `json:"app"`
	Ranks       int    `json:"ranks"`
	Total       int    `json:"totalPoints"` // points scheduled for injection
}

// journalPoint and journalQuarantine are the journal's two record payloads:
// the record's own fields (its json tags are the schema) behind the kind
// that says which record follows.
type journalPoint struct {
	Kind string `json:"kind"` // "point"
	PointRecord
}

type journalQuarantine struct {
	Kind string `json:"kind"` // "quarantine"
	QuarantinedPoint
}

// QuarantinedPoint is a poison point: one that repeatedly wedged or crashed
// the injection harness itself (not the simulated application) and was
// withdrawn from the campaign so the remaining points could complete.
type QuarantinedPoint struct {
	Index    int    `json:"index"` // position in the campaign's injection order
	Point    Point  `json:"point"`
	Attempts int    `json:"attempts"` // harness attempts before giving up
	Err      string `json:"error"`    // last harness failure
}

// CheckpointState is the replayable content of a checkpoint journal.
type CheckpointState struct {
	Header      ckptHeader
	Results     map[int]PointResult // completed points by injection index
	Quarantined map[int]QuarantinedPoint
	// BaseTrials is each restored point's phase-1 trial count (adaptive
	// campaigns journal refined points as longer records for the same
	// index; duplicate indices are last-wins, like Results).
	BaseTrials map[int]int
	// TornTail reports that a torn trailing line (interrupted append) was
	// discarded while loading.
	TornTail bool
}

// Checkpoint is an open campaign journal accepting appends. Methods are
// safe for concurrent use by the supervisor's point workers.
type Checkpoint struct {
	log *recfile.Log
}

// Path returns the journal's file path.
func (c *Checkpoint) Path() string { return c.log.Path() }

// CreateCheckpoint atomically creates a fresh journal at path holding only
// the header and opens it for appends. It refuses an existing file.
func CreateCheckpoint(path, fingerprint, app string, ranks, total int) (*Checkpoint, error) {
	log, err := recfile.Create(path, ckptHeader{Kind: "header", Version: checkpointVersion,
		Fingerprint: fingerprint, App: app, Ranks: ranks, Total: total})
	if err != nil {
		return nil, fmt.Errorf("creating checkpoint: %w", err)
	}
	return &Checkpoint{log: log}, nil
}

// foldInto returns the record fold that rebuilds st from a journal bound
// to fingerprint. Point and quarantine payloads go through the wire
// decoders (dist.go), so a record is validated identically on disk, on the
// wire and in the coordinator's WAL.
func (st *CheckpointState) foldInto(fingerprint string) func(recfile.Record) error {
	return func(rec recfile.Record) error {
		switch rec.Kind {
		case "header":
			if err := json.Unmarshal(rec.Payload, &st.Header); err != nil {
				return fmt.Errorf("corrupt header: %w", err)
			}
			if st.Header.Version != checkpointVersion {
				return fmt.Errorf("%w %d (want %d)", ErrCheckpointVersion, st.Header.Version, checkpointVersion)
			}
			if st.Header.Fingerprint != fingerprint {
				return fmt.Errorf("written by a different campaign (app %q, fingerprint %s, want %s): %w",
					st.Header.App, st.Header.Fingerprint, fingerprint, ErrCheckpointMismatch)
			}
		case "point":
			pr, err := DecodeJournalPoint(rec.Payload)
			if err != nil {
				return err
			}
			st.Results[pr.Index] = pr.Result
			st.BaseTrials[pr.Index] = pr.Base
		case "quarantine":
			q, err := DecodeJournalQuarantine(rec.Payload)
			if err != nil {
				return err
			}
			st.Quarantined[q.Index] = q
		default:
			return fmt.Errorf("unknown record kind %q", rec.Kind)
		}
		return nil
	}
}

// loadErr names the version when a journal that failed to load turns out
// to be an unframed version-1 file, which would otherwise read as corrupt.
func loadErr(path string, err error) error {
	if f, oerr := os.Open(path); oerr == nil {
		var first [1]byte
		n, _ := f.Read(first[:])
		f.Close()
		if n == 1 && first[0] == '{' {
			return fmt.Errorf("checkpoint %s: %w 1 (unframed JSONL; want %d)", path, ErrCheckpointVersion, checkpointVersion)
		}
	}
	return fmt.Errorf("checkpoint %w", err)
}

func newCheckpointState() *CheckpointState {
	return &CheckpointState{
		Results:     map[int]PointResult{},
		Quarantined: map[int]QuarantinedPoint{},
		BaseTrials:  map[int]int{},
	}
}

// LoadCheckpointState reads and validates a journal, rejecting one whose
// fingerprint does not match. A torn trailing line (the signature of a
// crash mid-append) is discarded; corruption anywhere else is an error
// naming the record number and byte offset.
func LoadCheckpointState(path, fingerprint string) (st *CheckpointState, err error) {
	st = newCheckpointState()
	if st.TornTail, err = recfile.Load(path, "header", st.foldInto(fingerprint)); err != nil {
		return nil, loadErr(path, err)
	}
	return st, nil
}

// OpenCheckpoint loads an existing journal (validating its fingerprint),
// truncates a torn final append and reopens the file for appends.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, *CheckpointState, error) {
	st := newCheckpointState()
	log, torn, err := recfile.Open(path, "header", st.foldInto(fingerprint))
	if err != nil {
		return nil, nil, loadErr(path, err)
	}
	st.TornTail = torn
	return &Checkpoint{log: log}, st, nil
}

// AppendResult journals one completed injection point. base is the
// phase-1 trial count (see PointRecord.Base); pass len(pr.Trials) for a
// non-adaptive or unrefined record.
func (c *Checkpoint) AppendResult(index int, pr PointResult, base int) error {
	return c.log.Append(journalPoint{"point", PointRecord{Index: index, Result: pr, Base: base}})
}

// AppendQuarantine journals one poison point.
func (c *Checkpoint) AppendQuarantine(q QuarantinedPoint) error {
	return c.log.Append(journalQuarantine{"quarantine", q})
}

// Close syncs and closes the journal. The file stays on disk: deleting it
// after a successful campaign is the caller's decision.
func (c *Checkpoint) Close() error { return c.log.Close() }
