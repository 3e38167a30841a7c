package dist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/sense"
)

// The three durable logs — checkpoint journal, coordinator WAL, sense
// store — share one file lifecycle (internal/recfile) and keep only their
// record kinds, so the same damage must land in the same class for each:
// interior corruption and a missing header are refused, naming where; a
// torn tail is repaired; a replayed record changes nothing. This package is
// the one place that sees all three owners.

// logOwner is one durable log under test.
type logOwner struct {
	name string
	// build writes a valid log of at least four records and returns its path.
	build func(t *testing.T, dir string) string
	// load reads the log without modifying it; open opens it for appends
	// (repairing a torn tail) and closes it again. Both report how many
	// campaign records the state holds and whether a torn tail was seen.
	load, open func(path string) (records int, torn bool, err error)
}

const ownersFingerprint = "00000000deadbeef"

func logOwners() []logOwner {
	point := func(i int) core.PointResult {
		pr := core.PointResult{Point: core.Point{Rank: i, SiteName: "main a.go:1", NInv: 1}}
		pr.Trials = []core.TrialResult{{Target: fault.TargetSendBuf, Bit: i, Outcome: classify.Success}}
		pr.Counts.Add(classify.Success)
		return pr
	}
	return []logOwner{{
		name: "checkpoint",
		build: func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "c.ckpt")
			ck, err := core.CreateCheckpoint(path, ownersFingerprint, "toy", 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := ck.AppendResult(i, point(i), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			return path
		},
		load: func(path string) (int, bool, error) {
			st, err := core.LoadCheckpointState(path, ownersFingerprint)
			if err != nil {
				return 0, false, err
			}
			return len(st.Results), st.TornTail, nil
		},
		open: func(path string) (int, bool, error) {
			ck, st, err := core.OpenCheckpoint(path, ownersFingerprint)
			if err != nil {
				return 0, false, err
			}
			return len(st.Results), st.TornTail, ck.Close()
		},
	}, {
		name: "wal",
		build: func(t *testing.T, dir string) string {
			walDir, _ := buildPartialWAL(t, 2, 3)
			return walPath(walDir)
		},
		load: func(path string) (int, bool, error) {
			st, err := dist.LoadWALState(path)
			if err != nil {
				return 0, false, err
			}
			return len(st.Records), st.TornTail, nil
		},
		open: func(path string) (int, bool, error) {
			wal, st, err := dist.OpenWAL(filepath.Dir(path))
			if err != nil {
				return 0, false, err
			}
			return len(st.Records), st.TornTail, wal.Close()
		},
	}, {
		name: "sense-store",
		build: func(t *testing.T, dir string) string {
			s, err := sense.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var recs []sense.Record
			for i := 0; i < 3; i++ {
				counts := make([]int, sense.Classes)
				counts[0] = 4
				recs = append(recs, sense.Record{Features: sense.Features{App: "toy", Ranks: 4, NInv: 1 + i}, Counts: counts, Trials: 4})
			}
			if _, err := s.AddCampaign(ownersFingerprint, recs); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return s.Path()
		},
		load: func(path string) (int, bool, error) {
			st, err := sense.LoadStoreState(path)
			if err != nil {
				return 0, false, err
			}
			return len(st.Records), st.TornTail, nil
		},
		open: func(path string) (int, bool, error) {
			s, err := sense.OpenStore(filepath.Dir(path))
			if err != nil {
				return 0, false, err
			}
			return len(s.Records()), false, s.Close()
		},
	}}
}

func TestDurableLogsShareOneCorruptionContract(t *testing.T) {
	for _, o := range logOwners() {
		o := o
		t.Run(o.name, func(t *testing.T) {
			path := o.build(t, t.TempDir())
			whole := readFile(t, path)
			lines := strings.SplitAfter(strings.TrimSuffix(string(whole), "\n"), "\n")
			lines[len(lines)-1] += "\n"
			if len(lines) < 4 {
				t.Fatalf("built log has %d records, want at least 4", len(lines))
			}
			records, torn, err := o.load(path)
			if err != nil || torn || records != 3 {
				t.Fatalf("clean load = %d records, torn %v, err %v; want 3 clean", records, torn, err)
			}
			rewrite := func(content string) {
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			refused := func(what, want string) {
				t.Helper()
				before := readFile(t, path)
				for name, fn := range map[string]func(string) (int, bool, error){"load": o.load, "open": o.open} {
					if _, _, err := fn(path); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s: %s = %v, want a refusal naming %q", what, name, err, want)
					}
				}
				if string(readFile(t, path)) != string(before) {
					t.Errorf("%s: a refused open modified the file", what)
				}
			}

			// Flip a payload byte mid-file: refused, naming record and offset.
			lastOff := len(whole) - len(lines[len(lines)-1])
			flipped := []byte(string(whole))
			flipped[lastOff-3] ^= 0x01 // inside the second-to-last record's payload
			rewrite(string(flipped))
			refused("flipped byte", fmt.Sprintf("record %d at offset %d: checksum mismatch",
				len(lines)-1, lastOff-len(lines[len(lines)-2])))

			// Drop the header: refused at record 1.
			rewrite(strings.Join(lines[1:], ""))
			refused("dropped header", "record 1 at offset 0: missing")

			// Cut the last line: load reports the torn tail and one record
			// fewer; open repairs it, after which the log loads clean.
			rewrite(string(whole[:len(whole)-5]))
			if records, torn, err := o.load(path); err != nil || !torn || records != 2 {
				t.Errorf("cut tail: load = %d records, torn %v, err %v; want 2 torn", records, torn, err)
			}
			if records, _, err := o.open(path); err != nil || records != 2 {
				t.Errorf("cut tail: open = %d records, err %v; want 2", records, err)
			}
			if records, torn, err := o.load(path); err != nil || torn || records != 2 {
				t.Errorf("after repair: load = %d records, torn %v, err %v; want 2 clean", records, torn, err)
			}

			// Duplicate a record: accepted, and the state does not change.
			rewrite(string(whole) + lines[len(lines)-1])
			if records, torn, err := o.load(path); err != nil || torn || records != 3 {
				t.Errorf("duplicated record: load = %d records, torn %v, err %v; want 3 clean", records, torn, err)
			}
		})
	}
}
