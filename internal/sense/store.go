package sense

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/fastfit/fastfit/internal/recfile"
)

// The feature store is a recfile.Log (internal/recfile) — the framed,
// CRC-checked, torn-tail-repairing record file the checkpoint journal and
// the coordinator WAL also use. This file keeps the store's record kinds
// and their folding: records are keyed by (campaign fingerprint, index)
// with first-write-wins dedup, so re-ingesting a campaign is a no-op.

// storeVersion identifies the store's on-disk schema.
const storeVersion = 1

// StoreFileName is the store's file name inside its directory.
const StoreFileName = "sense.jsonl"

// storeHeader is the first record of a store file.
type storeHeader struct {
	Kind    string `json:"kind"` // "sense-store"
	Version int    `json:"version"`
}

// storeRecord is one accumulated observation line.
type storeRecord struct {
	Kind        string `json:"kind"` // "record"
	Fingerprint string `json:"fingerprint"`
	Index       int    `json:"index"`
	Record      Record `json:"record"`
}

// StoreState is the replayable content of a feature store file.
type StoreState struct {
	// Records holds the accumulated observations in file order (deduped:
	// the first write of each (fingerprint, index) wins).
	Records []Record
	// Campaigns maps each ingested campaign fingerprint to its record count.
	Campaigns map[string]int
	// TornTail reports that a torn trailing line (interrupted append) was
	// discarded while loading.
	TornTail bool

	seen map[storeKey]bool // dedup keys
}

// storeKey identifies one observation: first write wins.
type storeKey struct {
	fingerprint string
	index       int
}

// Store is an open feature store accepting appends.
type Store struct {
	log *recfile.Log

	mu sync.Mutex
	st *StoreState
}

func newStoreState() *StoreState {
	return &StoreState{Campaigns: map[string]int{}, seen: map[storeKey]bool{}}
}

// OpenStore opens the feature store in dir, creating it (directory
// included) if absent. An existing store is loaded in full — repairing a
// torn tail by truncation — before the file is reopened for appends.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating sense store dir %s: %w", dir, err)
	}
	path := filepath.Join(dir, StoreFileName)
	st := newStoreState()
	var log *recfile.Log
	var err error
	if _, serr := os.Stat(path); os.IsNotExist(serr) {
		log, err = recfile.Create(path, storeHeader{Kind: "sense-store", Version: storeVersion})
	} else {
		log, st.TornTail, err = recfile.Open(path, "sense-store", st.fold)
	}
	if err != nil {
		return nil, fmt.Errorf("sense store %w", err)
	}
	return &Store{log: log, st: st}, nil
}

// LoadStoreState reads and validates a feature store file. A torn trailing
// line is discarded and reported via TornTail; corruption anywhere else is
// an error naming the record's number and byte offset.
func LoadStoreState(path string) (st *StoreState, err error) {
	st = newStoreState()
	if st.TornTail, err = recfile.Load(path, "sense-store", st.fold); err != nil {
		return nil, fmt.Errorf("sense store %w", err)
	}
	return st, nil
}

// fold applies one store record to the state. Observations dedupe
// first-write-wins, like the WAL's record store, so a replayed append
// changes nothing.
func (st *StoreState) fold(rec recfile.Record) error {
	switch rec.Kind {
	case "sense-store":
		var h storeHeader
		if err := json.Unmarshal(rec.Payload, &h); err != nil {
			return fmt.Errorf("corrupt header: %w", err)
		}
		if h.Version != storeVersion {
			return fmt.Errorf("unsupported version %d (want %d)", h.Version, storeVersion)
		}
	case "record":
		var sr storeRecord
		if err := json.Unmarshal(rec.Payload, &sr); err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
		if sr.Fingerprint == "" {
			return errors.New("missing fingerprint")
		}
		if sr.Index < 0 {
			return fmt.Errorf("negative index %d", sr.Index)
		}
		if err := sr.Record.validate(); err != nil {
			return err
		}
		st.add(sr.Fingerprint, sr.Index, sr.Record)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// has reports whether the (fingerprint, index) observation is stored.
func (st *StoreState) has(fingerprint string, index int) bool {
	return st.seen[storeKey{fingerprint, index}]
}

// add stores one observation unless its key is already present.
func (st *StoreState) add(fingerprint string, index int, rec Record) {
	if st.has(fingerprint, index) {
		return
	}
	st.seen[storeKey{fingerprint, index}] = true
	st.Records = append(st.Records, rec)
	st.Campaigns[fingerprint]++
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.log.Path() }

// Records returns a copy of the accumulated observations.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.st.Records...)
}

// Apps returns the distinct app ids among the stored records, sorted.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for _, r := range s.st.Records {
		set[r.App] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Campaigns returns the number of distinct campaign fingerprints ingested.
func (s *Store) Campaigns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.st.Campaigns)
}

// AddCampaign appends a finished campaign's records under its fingerprint,
// skipping (fingerprint, index) pairs already present — re-ingesting a
// campaign is a no-op. Records that fail validation are an error; nothing
// is appended past the first bad one.
func (s *Store) AddCampaign(fingerprint string, recs []Record) (added int, err error) {
	if fingerprint == "" {
		return 0, fmt.Errorf("sense store %s: empty campaign fingerprint", s.Path())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		if err := rec.validate(); err != nil {
			return added, fmt.Errorf("sense store %s: campaign %s record %d: %w", s.Path(), fingerprint, i, err)
		}
		if s.st.has(fingerprint, i) {
			continue
		}
		if err := s.log.Append(storeRecord{Kind: "record", Fingerprint: fingerprint, Index: i, Record: rec}); err != nil {
			return added, fmt.Errorf("sense store %w", err)
		}
		s.st.add(fingerprint, i, rec)
		added++
	}
	return added, nil
}

// Sync flushes appends to stable storage.
func (s *Store) Sync() error { return s.log.Sync() }

// Close syncs and closes the store. The file stays on disk.
func (s *Store) Close() error { return s.log.Close() }

// Fingerprint derives a stable campaign key from the app name and the
// campaign's records — the store-side analogue of core.CampaignFingerprint,
// computable from an ingested campaign JSON alone.
func Fingerprint(app string, recs []Record) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "app=%s\n", app)
	for i, r := range recs {
		payload, _ := json.Marshal(r)
		fmt.Fprintf(h, "%d %s\n", i, payload)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
