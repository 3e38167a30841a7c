package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/recfile"
)

// The coordinator's write-ahead log makes the control plane crash-durable:
// the campaign spec (with its plan fingerprint) is written when the WAL is
// opened, and every applied journal batch of records and quarantines is
// appended before it is acknowledged, so SIGKILLing the coordinator at
// any instant loses at most work that was never acked — work the lease
// protocol re-measures byte-identically anyway. Leases are deliberately
// NOT logged: they are soft state (a relative-TTL promise), so recovery
// starts with zero leases and workers simply re-lease, the same path as a
// TTL expiry.
//
// The log is a recfile.Log (internal/recfile) — the same framed,
// CRC-checked, torn-tail-repairing record file the checkpoint journal and
// the sense store use; this file keeps only the WAL's record kinds and how
// they fold into a WALState.

// walVersion identifies the WAL's on-disk schema.
const walVersion = 1

// WALFileName is the log's file name inside a campaign store directory.
const WALFileName = "wal.jsonl"

// ErrCampaignMerged reports a WAL whose campaign already merged: there is
// nothing to recover, the result was already produced and persisted.
var ErrCampaignMerged = errors.New("campaign already merged")

// walOpen is the first record: the campaign this log belongs to.
type walOpen struct {
	Kind    string       `json:"kind"` // "open"
	Version int          `json:"version"`
	Spec    CampaignSpec `json:"spec"`
}

// walEpoch marks one process generation opening the log. Counting them
// gives each generation a distinct lease-ID namespace, so a lease granted
// before a crash can never collide with one granted after recovery.
type walEpoch struct {
	Kind  string `json:"kind"` // "epoch"
	Epoch int    `json:"epoch"`
}

// walBatch is one applied journal batch: the newly accepted records and
// quarantines in checkpoint-journal line form (core.EncodeJournalPoint /
// core.EncodeJournalQuarantine), exactly as the shard streamed them.
type walBatch struct {
	Kind        string            `json:"kind"` // "batch"
	Lease       string            `json:"lease,omitempty"`
	Worker      string            `json:"worker,omitempty"`
	Records     []json.RawMessage `json:"records,omitempty"`
	Quarantines []json.RawMessage `json:"quarantines,omitempty"`
}

// walMerged marks the campaign's deterministic merge as completed and
// persisted; recovery refuses the log with ErrCampaignMerged.
type walMerged struct {
	Kind string `json:"kind"` // "merged"
}

// WALState is the replayable content of a coordinator WAL.
type WALState struct {
	Spec        CampaignSpec
	Records     map[int]core.PointRecord
	Quarantined map[int]core.QuarantinedPoint
	// Epoch counts the process generations that opened this log (the
	// "epoch" records); the next generation is Epoch+1.
	Epoch int
	// Merged reports the campaign's merge completed before the last exit.
	Merged bool
	// TornTail reports that a torn trailing line (interrupted append) was
	// discarded while loading.
	TornTail bool
}

// WAL is an open coordinator write-ahead log accepting appends.
type WAL struct {
	log *recfile.Log
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.log.Path() }

// CreateWAL starts a fresh log in dir (created if needed) holding the open
// record and the first epoch record. It refuses to overwrite an existing
// log — recover it instead.
func CreateWAL(dir string, spec CampaignSpec) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating campaign store %s: %w", dir, err)
	}
	log, err := recfile.Create(filepath.Join(dir, WALFileName),
		walOpen{Kind: "open", Version: walVersion, Spec: spec}, walEpoch{Kind: "epoch", Epoch: 1})
	if err != nil {
		return nil, fmt.Errorf("creating wal: %w (recover the campaign instead of re-opening it fresh)", err)
	}
	return &WAL{log: log}, nil
}

// LoadWALState reads and validates a coordinator log. A torn trailing line
// (the signature of a crash mid-append) is discarded and reported via
// TornTail; corruption anywhere else — a failed checksum, a length
// mismatch, a malformed prefix, an invalid payload — is an error naming
// the record's number and byte offset.
func LoadWALState(path string) (st *WALState, err error) {
	st = newWALState()
	if st.TornTail, err = recfile.Load(path, "open", st.fold); err != nil {
		return nil, fmt.Errorf("wal %w", err)
	}
	return st, st.complete(path)
}

func newWALState() *WALState {
	return &WALState{Records: map[int]core.PointRecord{}, Quarantined: map[int]core.QuarantinedPoint{}}
}

// complete checks what only the whole log can show: it was opened by at
// least one process generation.
func (st *WALState) complete(path string) error {
	if st.Epoch == 0 {
		return fmt.Errorf("wal %s: missing epoch record", path)
	}
	return nil
}

// fold applies one log record to the state. A batch line lands by the
// live journal endpoint's rule (landing), so a replayed append changes
// nothing and a recovered store is the one the coordinator acked.
func (st *WALState) fold(rec recfile.Record) error {
	switch rec.Kind {
	case "open":
		var open walOpen
		if err := json.Unmarshal(rec.Payload, &open); err != nil {
			return fmt.Errorf("corrupt open record: %w", err)
		}
		if open.Version != walVersion {
			return fmt.Errorf("unsupported version %d (want %d)", open.Version, walVersion)
		}
		spec, err := DecodeCampaignSpec(payloadOf(open.Spec))
		if err != nil {
			return err
		}
		st.Spec = spec
	case "epoch":
		var epoch walEpoch
		if err := json.Unmarshal(rec.Payload, &epoch); err != nil {
			return fmt.Errorf("corrupt epoch record: %w", err)
		}
		if epoch.Epoch <= st.Epoch {
			return fmt.Errorf("epoch %d does not advance past %d", epoch.Epoch, st.Epoch)
		}
		st.Epoch = epoch.Epoch
	case "batch":
		var batch walBatch
		if err := json.Unmarshal(rec.Payload, &batch); err != nil {
			return fmt.Errorf("corrupt batch record: %w", err)
		}
		recs := make([]core.PointRecord, len(batch.Records))
		for j, line := range batch.Records {
			pr, err := core.DecodeJournalPoint(line)
			if err != nil {
				return fmt.Errorf("batch record %d: %w", j, err)
			}
			if pr.Index >= st.Spec.Points {
				return fmt.Errorf("point index %d outside campaign of %d points", pr.Index, st.Spec.Points)
			}
			recs[j] = pr
		}
		quars := make([]core.QuarantinedPoint, len(batch.Quarantines))
		for j, line := range batch.Quarantines {
			q, err := core.DecodeJournalQuarantine(line)
			if err != nil {
				return fmt.Errorf("batch quarantine %d: %w", j, err)
			}
			if q.Index >= st.Spec.Points {
				return fmt.Errorf("quarantine index %d outside campaign of %d points", q.Index, st.Spec.Points)
			}
			quars[j] = q
		}
		fresh, freshQ := landing(st.Records, st.Quarantined, recs, quars)
		for _, pr := range fresh {
			st.Records[pr.Index] = pr
		}
		for _, q := range freshQ {
			st.Quarantined[q.Index] = q
		}
	case "frontier":
		// Older builds logged each ML frontier advance; recovery recomputes
		// the frontier from the records, so the line is read past.
	case "merged":
		st.Merged = true
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// payloadOf round-trips a spec through JSON so LoadWALState applies the
// same validation a network-received spec gets.
func payloadOf(spec CampaignSpec) []byte {
	data, err := json.Marshal(spec)
	if err != nil {
		return []byte("null")
	}
	return data
}

// OpenWAL loads an existing log from dir, repairs a torn tail, stamps the
// next epoch and reopens the file for appends. The returned state is what
// recovery replays; the returned WAL accepts the new generation's appends.
func OpenWAL(dir string) (*WAL, *WALState, error) {
	path := filepath.Join(dir, WALFileName)
	st := newWALState()
	log, torn, err := recfile.Open(path, "open", st.fold)
	if err != nil {
		return nil, nil, fmt.Errorf("wal %w", err)
	}
	st.TornTail = torn
	if err = st.complete(path); err == nil {
		st.Epoch++
		err = log.Append(walEpoch{Kind: "epoch", Epoch: st.Epoch})
	}
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return &WAL{log: log}, st, nil
}

// AppendBatch logs one applied journal batch: only the newly accepted
// records and quarantines, in the checkpoint-journal line form the shard
// streamed. Called before the batch is acknowledged to the shard.
func (w *WAL) AppendBatch(leaseID, worker string, recs []core.PointRecord, quars []core.QuarantinedPoint) error {
	b := walBatch{Kind: "batch", Lease: leaseID, Worker: worker}
	for _, rec := range recs {
		line, err := core.EncodeJournalPoint(rec)
		if err != nil {
			return fmt.Errorf("wal %s: encoding point %d: %w", w.Path(), rec.Index, err)
		}
		b.Records = append(b.Records, line)
	}
	for _, q := range quars {
		line, err := core.EncodeJournalQuarantine(q)
		if err != nil {
			return fmt.Errorf("wal %s: encoding quarantine %d: %w", w.Path(), q.Index, err)
		}
		b.Quarantines = append(b.Quarantines, line)
	}
	return w.log.Append(b)
}

// AppendMerged marks the campaign merged; a later recovery refuses the log
// with ErrCampaignMerged instead of re-serving a finished campaign.
func (w *WAL) AppendMerged() error {
	return w.log.Append(walMerged{Kind: "merged"})
}

// Close syncs and closes the log. The file stays on disk.
func (w *WAL) Close() error { return w.log.Close() }
