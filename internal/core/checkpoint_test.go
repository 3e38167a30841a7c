package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/recfile"
)

func ckptTestPoints() []Point {
	return []Point{
		{Rank: 0, SiteName: "main a.go:1", Type: mpi.CollAllreduce, Invocation: 0, NInv: 3},
		{Rank: 1, SiteName: "main a.go:1", Type: mpi.CollAllreduce, Invocation: 1, NInv: 3},
		{Rank: 0, SiteName: "main b.go:9", Type: mpi.CollBcast, Invocation: 0, NInv: 1},
	}
}

func ckptTestResult(p Point) PointResult {
	pr := PointResult{Point: p}
	for i, o := range []classify.Outcome{classify.Success, classify.WrongAns} {
		tr := TrialResult{Target: fault.TargetSendBuf, Bit: i * 3, Outcome: o}
		pr.Trials = append(pr.Trials, tr)
		pr.Counts.Add(o)
	}
	return pr
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)

	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendResult(0, ckptTestResult(pts[0]), 2); err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendQuarantine(QuarantinedPoint{Point: pts[1], Index: 1, Attempts: 3, Err: "harness failure: runner panic: boom"}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadCheckpointState(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Fatal("clean journal reported a torn tail")
	}
	if len(st.Results) != 1 || len(st.Quarantined) != 1 {
		t.Fatalf("state: %d results, %d quarantined", len(st.Results), len(st.Quarantined))
	}
	got := st.Results[0]
	want := ckptTestResult(pts[0])
	if got.Point != want.Point || got.Counts != want.Counts || len(got.Trials) != len(want.Trials) {
		t.Fatalf("restored result differs: %+v vs %+v", got, want)
	}
	q := st.Quarantined[1]
	if q.Point != pts[1] || q.Attempts != 3 || !strings.Contains(q.Err, "boom") {
		t.Fatalf("restored quarantine differs: %+v", q)
	}
}

func TestCheckpointRejectsMismatchedFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{Exec: Exec{Seed: 1}}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{Exec: Exec{Seed: 2}}, pts)
	if other == fp {
		t.Fatal("fingerprint must depend on the campaign seed")
	}
	_, err = LoadCheckpointState(path, other)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendResult(0, ckptTestResult(pts[0]), 2); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Simulate a crash mid-append: a torn, newline-less trailing record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"point","index":1,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, st, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if !st.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(st.Results) != 1 {
		t.Fatalf("results after torn tail: %d", len(st.Results))
	}
	// Appends after the repair must land on a fresh line and reload cleanly.
	if err := ck2.AppendResult(1, ckptTestResult(pts[1]), 2); err != nil {
		t.Fatal(err)
	}
	ck2.Close()
	st2, err := LoadCheckpointState(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TornTail || len(st2.Results) != 2 {
		t.Fatalf("post-repair reload: torn=%v results=%d", st2.TornTail, len(st2.Results))
	}
}

// framedJournal frames each payload as one journal line.
func framedJournal(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, recfile.EncodeLine([]byte(p))...)
	}
	return out
}

func TestCheckpointRejectsCorruptMiddleLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{corrupt!!\n")
	f.Write(framedJournal(`{"kind":"point","index":0,"result":{"point":{},"trials":[]}}`))
	f.Close()

	if _, err := LoadCheckpointState(path, fp); err == nil || !strings.Contains(err.Error(), "record 2 at offset") {
		t.Fatalf("corrupt middle line must fail loudly, naming the record: %v", err)
	}
}

func TestCheckpointRejectsMissingHeaderAndBadRecords(t *testing.T) {
	dir := t.TempDir()
	const header = `{"kind":"header","version":2,"fingerprint":"fp"}`
	const point = `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":0}]}}`
	cases := map[string]struct {
		content []byte
		want    string
	}{
		"empty":          {nil, "empty file"},
		"no header":      {framedJournal(point), "missing header"},
		"unknown kind":   {framedJournal(header, `{"kind":"wat"}`), `unknown record kind "wat"`},
		"bad outcome":    {framedJournal(header, `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":99}]}}`), "outcome"},
		"negative bit":   {framedJournal(header, strings.Replace(point, `{"outcome":0}`, `{"bit":-3,"outcome":0}`, 1)), "invalid fault bit -3"},
		"bit past range": {framedJournal(header, strings.Replace(point, `{"outcome":0}`, `{"bit":1048576,"outcome":0}`, 1)), "invalid fault bit 1048576"},
		"p2p target":     {framedJournal(header, strings.Replace(point, `{"outcome":0}`, `{"target":11,"outcome":0}`, 1)), "point-to-point fault target 11 (data)"},
		"negative index": {framedJournal(header, strings.Replace(point, `"index":0`, `"index":-1`, 1)), "negative index -1"},
		"negative quarantine index": {framedJournal(header, `{"kind":"quarantine","index":-2,"point":{},"attempts":1,"error":"x"}`),
			"negative index -2"},
		"base past trials": {framedJournal(header, strings.Replace(point, `}]}}`, `}]},"baseTrials":2}`, 1)), "baseTrials 2 outside trial list of 1"},
		"negative base":    {framedJournal(header, strings.Replace(point, `}]}}`, `}]},"baseTrials":-1}`, 1)), "baseTrials -1 outside trial list of 1"},
		"version skew":     {framedJournal(`{"kind":"header","version":42,"fingerprint":"fp"}`), "unsupported checkpoint version 42"},
		"double header":    {framedJournal(header, header), "unexpected second header"},
		"header-is-torn":   {framedJournal(header)[:30], "no complete record"},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(path, tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpointState(path, "fp"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadCheckpointState = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestCheckpointRefusesUnframedV1: a version-1 journal (plain JSONL, no
// length/CRC frame) is refused by name — not dual-read, and not reported
// as mere corruption.
func TestCheckpointRefusesUnframedV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	v1 := `{"kind":"header","version":1,"fingerprint":"fp","app":"toy","ranks":4,"totalPoints":3}` + "\n" +
		`{"kind":"point","index":0,"result":{"point":{},"trials":[]}}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpointState(path, "fp")
	if !errors.Is(err, ErrCheckpointVersion) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("load of a v1 journal = %v, want ErrCheckpointVersion naming version 1", err)
	}
	if _, _, err := OpenCheckpoint(path, "fp"); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("open of a v1 journal = %v, want ErrCheckpointVersion", err)
	}
	if after, _ := os.ReadFile(path); string(after) != v1 {
		t.Fatal("refusing a v1 journal modified it")
	}
}

// TestCampaignFingerprintPinned: fingerprints name WAL store directories,
// key sense records and bind journals to campaigns, so the recipe must not
// drift — in particular not with the journal's file version.
func TestCampaignFingerprintPinned(t *testing.T) {
	got := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, ckptTestPoints())
	if want := "1fa17c6e60a9f62c"; got != want {
		t.Fatalf("CampaignFingerprint = %s, want %s (the recipe changed: every stored campaign key moves)", got, want)
	}
}
