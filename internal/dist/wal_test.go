package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/recfile"
)

// buildPartialWAL runs a real campaign against a durable coordinator until
// a chaos-killed worker has streamed exactly `records` records, then kills
// the coordinator. What's left on disk is a genuine mid-crash WAL: open +
// epoch + batch lines, nothing synthetic.
func buildPartialWAL(t testing.TB, seed int64, records int) (string, dist.CampaignSpec) {
	dir := filepath.Join(t.TempDir(), "campaign")
	coord, err := dist.NewCoordinator(testEngine(t, testOptions(seed)), dist.CoordinatorOptions{
		LeaseSize: 4,
		Store:     dir,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
		Name:         "doomed",
		Lookup:       all.Lookup,
		Workers:      1,
		BatchSize:    1,
		PollInterval: 5 * time.Millisecond,
		MaxRecords:   records,
	})
	if !errors.Is(err, dist.ErrWorkerKilled) {
		t.Fatalf("doomed worker: %v", err)
	}
	spec := coord.Spec()
	srv.Close()
	coord.Hub().Close()
	return dir, spec
}

func walPath(dir string) string { return filepath.Join(dir, dist.WALFileName) }

func TestWALRoundTrip(t *testing.T) {
	dir, spec := buildPartialWAL(t, 2, 3)
	st, err := dist.LoadWALState(walPath(dir))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if st.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", st.Epoch)
	}
	if len(st.Records) != 3 {
		t.Errorf("recovered %d records, want 3", len(st.Records))
	}
	if st.Spec.Fingerprint != spec.Fingerprint {
		t.Errorf("spec fingerprint %s, want %s", st.Spec.Fingerprint, spec.Fingerprint)
	}
	if st.TornTail {
		t.Error("clean log reported a torn tail")
	}

	// Reopen (epoch bump), append one more record under the new epoch, and
	// reload: the WAL must replay both generations' writes.
	wal, st2, err := dist.OpenWAL(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st2.Epoch != 2 {
		t.Fatalf("epoch after reopen = %d, want 2", st2.Epoch)
	}
	var extra core.PointRecord
	free := -1
	for idx := 0; idx < st2.Spec.Points; idx++ {
		if _, ok := st2.Records[idx]; !ok {
			free = idx
			break
		}
	}
	if free < 0 {
		t.Fatal("no unrecorded index left to append")
	}
	for _, rec := range st2.Records {
		extra = rec
		break
	}
	extra.Index = free
	if err := wal.AppendBatch("lease-2-1", "w", []core.PointRecord{extra}, nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st3, err := dist.LoadWALState(walPath(dir))
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(st3.Records) != 4 {
		t.Errorf("after append: %d records, want 4", len(st3.Records))
	}
	if _, ok := st3.Records[free]; !ok {
		t.Errorf("appended record at index %d missing after reload", free)
	}
}

func TestWALTornTailRepair(t *testing.T) {
	dir, _ := buildPartialWAL(t, 3, 2)
	path := walPath(dir)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a prefix of a line with no newline.
	torn := append(append([]byte{}, clean...), []byte("000000a3 1f")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := dist.LoadWALState(path)
	if err != nil {
		t.Fatalf("load with torn tail: %v", err)
	}
	if !st.TornTail {
		t.Error("torn tail not reported")
	}
	if len(st.Records) != 2 {
		t.Errorf("torn-tail load has %d records, want the 2 complete ones", len(st.Records))
	}

	// OpenWAL repairs: the torn bytes are truncated away and the next
	// append lands on a clean line boundary.
	wal, st2, err := dist.OpenWAL(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !st2.TornTail {
		t.Error("open did not report the torn tail it repaired")
	}
	if err := wal.AppendMerged(); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := dist.LoadWALState(path)
	if err != nil {
		t.Fatalf("reload after repair: %v", err)
	}
	if st3.TornTail {
		t.Error("tail still torn after repair")
	}
	if !st3.Merged {
		t.Error("the record appended after repair was lost")
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(repaired, clean) {
		t.Error("repair did not preserve the clean prefix byte-for-byte")
	}
}

func TestWALInteriorCorruptionNamesOffset(t *testing.T) {
	dir, _ := buildPartialWAL(t, 4, 3)
	path := walPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second record. Its offset is the
	// length of the first line (newline included).
	first := bytes.IndexByte(data, '\n')
	offset := first + 1
	data[offset+30] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = dist.LoadWALState(path)
	if err == nil {
		t.Fatal("interior corruption loaded without error")
	}
	if want := fmt.Sprintf("offset %d", offset); !strings.Contains(err.Error(), want) {
		t.Errorf("corruption error %q does not name %q", err, want)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption error %q does not mention the checksum", err)
	}
}

func TestWALRefusesSecondCreate(t *testing.T) {
	dir, spec := buildPartialWAL(t, 5, 1)
	if _, err := dist.CreateWAL(dir, spec); err == nil {
		t.Fatal("CreateWAL overwrote an existing log")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Errorf("unexpected refusal message: %v", err)
	}
}

func TestWALDuplicatedBatchLine(t *testing.T) {
	dir, _ := buildPartialWAL(t, 6, 3)
	path := walPath(dir)
	before, err := dist.LoadWALState(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-append a complete batch line verbatim — the shape a retried flush
	// would leave if an ack was lost. First write wins; no error.
	var batchLine []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`"batch"`)) {
			batchLine = line
		}
	}
	if batchLine == nil {
		t.Fatal("no batch line in WAL")
	}
	if err := os.WriteFile(path, append(data, batchLine...), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := dist.LoadWALState(path)
	if err != nil {
		t.Fatalf("load with duplicated batch: %v", err)
	}
	if len(after.Records) != len(before.Records) {
		t.Errorf("duplicate line changed record count: %d -> %d", len(before.Records), len(after.Records))
	}
	for idx, rec := range before.Records {
		got, ok := after.Records[idx]
		if !ok || got.Result.Point != rec.Result.Point {
			t.Errorf("record %d changed under a duplicated line", idx)
		}
	}
}

// FuzzRecoverWAL throws corrupted logs at the recovery path: truncations,
// bit flips, duplicated lines, raw junk. Recovery must never panic, must
// return a non-empty descriptive error for anything it rejects, and must
// only ever produce states satisfying the WAL invariants.
func FuzzRecoverWAL(f *testing.F) {
	dir, _ := buildPartialWAL(f, 7, 3)
	real, err := os.ReadFile(walPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])    // torn mid-record
	f.Add(real[:len(real)-1])    // torn by one byte
	f.Add(append(real, real...)) // whole log duplicated
	flipped := append([]byte{}, real...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("not a wal\n"))
	f.Add([]byte("00000002 00000000 {}\n"))
	// Batches the landing rule settles: one naming an index twice, and one
	// that records and quarantines an index. A frontier line, which older
	// builds logged, is read past.
	point := fuzzJournalPointLine(f, 3)
	twice, err := core.EncodeJournalPoint(core.PointRecord{Index: 3,
		Result: core.PointResult{Trials: []core.TrialResult{{}}}})
	if err != nil {
		f.Fatal(err)
	}
	quar, err := core.EncodeJournalQuarantine(core.QuarantinedPoint{Index: 3, Attempts: 2, Err: "wedged"})
	if err != nil {
		f.Fatal(err)
	}
	for _, extra := range []any{
		map[string]any{"kind": "batch", "records": []json.RawMessage{point, twice}},
		map[string]any{"kind": "batch", "records": []json.RawMessage{point}, "quarantines": []json.RawMessage{quar}},
		map[string]any{"kind": "frontier", "needed": 4, "done": false},
	} {
		line, err := recfile.Marshal(extra)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(append([]byte{}, real...), line...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), dist.WALFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := dist.LoadWALState(path)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection with an empty error message")
			}
			return
		}
		if st.Epoch < 1 {
			t.Fatalf("accepted state with epoch %d", st.Epoch)
		}
		if st.Spec.Fingerprint == "" {
			t.Fatal("accepted state with no campaign fingerprint")
		}
		for idx := range st.Records {
			if idx < 0 || idx >= st.Spec.Points {
				t.Fatalf("accepted record index %d outside plan of %d points", idx, st.Spec.Points)
			}
		}
		for idx := range st.Quarantined {
			if idx < 0 || idx >= st.Spec.Points {
				t.Fatalf("accepted quarantine index %d outside plan of %d points", idx, st.Spec.Points)
			}
			if _, ok := st.Records[idx]; ok {
				t.Fatalf("accepted state both records and quarantines index %d", idx)
			}
		}
	})
}
