package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

func sampleCampaign() *CampaignResult {
	pr := PointResult{Point: Point{
		Rank: 3, Site: 0xABCD, SiteName: "main foo.go:10", Type: mpi.CollAllreduce,
		Invocation: 2, StackHash: 12345, Phase: mpi.PhaseCompute,
		ErrHandling: true, IsRoot: false, NInv: 9, StackDepth: 4, NDiffStacks: 2,
	}}
	for i, o := range []classify.Outcome{classify.Success, classify.SegFault, classify.MPIErr} {
		pr.Trials = append(pr.Trials, TrialResult{Target: fault.TargetCount, Bit: i * 7, Outcome: o})
		pr.Counts.Add(o)
	}
	return &CampaignResult{
		AppName: "toy", Ranks: 8,
		TotalPoints: 100, AfterSemantic: 20, AfterContext: 10, Injected: 1, PredictedN: 1,
		SemanticReduction: 0.8, ContextReduction: 0.5, MLReduction: 0.1, TotalReduction: 0.99,
		VerifyAccuracy: 0.7,
		Measured:       []PointResult{pr},
		Predicted:      []Prediction{{Point: Point{Rank: 1, Site: 0x99, Type: mpi.CollBarrier}, Level: 3}},
	}
}

func TestCampaignJSONRoundTrip(t *testing.T) {
	orig := sampleCampaign()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCampaignJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != orig.AppName || got.Ranks != orig.Ranks {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if got.TotalPoints != 100 || got.TotalReduction != 0.99 || got.VerifyAccuracy != 0.7 {
		t.Fatalf("accounting lost: %+v", got)
	}
	if len(got.Measured) != 1 {
		t.Fatalf("measured lost")
	}
	p := got.Measured[0].Point
	op := orig.Measured[0].Point
	if p != op {
		t.Fatalf("point round trip: %+v vs %+v", p, op)
	}
	if got.Measured[0].Counts != orig.Measured[0].Counts {
		t.Fatalf("counts not rebuilt: %v vs %v", got.Measured[0].Counts, orig.Measured[0].Counts)
	}
	for i, tr := range got.Measured[0].Trials {
		if tr != orig.Measured[0].Trials[i] {
			t.Fatalf("trial %d: %+v vs %+v", i, tr, orig.Measured[0].Trials[i])
		}
	}
	if len(got.Predicted) != 1 || got.Predicted[0].Level != 3 {
		t.Fatalf("predictions lost: %+v", got.Predicted)
	}
}

func TestCampaignJSONFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	orig := sampleCampaign()
	if err := orig.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCampaignJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != orig.Summary() {
		t.Fatalf("summaries differ:\n%s\n%s", got.Summary(), orig.Summary())
	}
	// Analyses must work on the reloaded campaign.
	agg := OutcomeBreakdown(got.Measured)
	if agg.Total() != 3 {
		t.Fatalf("aggregate on reloaded data: %v", agg)
	}
}

// TestCampaignJSONRejectsBadInput feeds ReadCampaignJSON mangled files and
// checks each failure carries a diagnosis, not a bare decode error.
func TestCampaignJSONRejectsBadInput(t *testing.T) {
	// A valid document to mutilate.
	var buf bytes.Buffer
	if err := sampleCampaign().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()

	cases := []struct {
		name    string
		input   string
		wantErr string
	}{
		{"empty input", "", "empty input"},
		{"truncated mid-document", valid[:len(valid)/2], "truncated"},
		{"garbage", "{not json", "decoding campaign"},
		{"missing version", `{"app":"toy"}`, "no version field"},
		{"future version", `{"version": 99}`, "unsupported campaign schema version 99"},
		{"invalid outcome", `{"version":1,"measured":[{"point":{},"trials":[{"outcome":42}]}]}`, "invalid outcome 42"},
		{"negative outcome", `{"version":1,"measured":[{"point":{},"trials":[{"outcome":-1}]}]}`, "invalid outcome -1"},
		{"invalid target", `{"version":1,"measured":[{"point":{},"trials":[{"target":77}]}]}`, "invalid fault target 77"},
		{"p2p target in a collective point", `{"version":1,"measured":[{"point":{},"trials":[{"target":0},{"target":12}]}]}`, "trial 1: point-to-point fault target 12 (tag)"},
		{"negative bit", `{"version":1,"measured":[{"point":{},"trials":[{"bit":-1}]}]}`, "invalid fault bit -1"},
		{"bit past the drawn range", `{"version":1,"measured":[{"point":{},"trials":[{"bit":1048576}]}]}`, "invalid fault bit 1048576"},
		{"trailing garbage", strings.TrimRight(valid, "\n") + `{"version":1}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCampaignJSON(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("want error, got none")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadCampaignJSONAnnotatesPath: file-level failures must name the file
// so campaign scripts loading many results can tell which one is bad.
func TestLoadCampaignJSONAnnotatesPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCampaignJSON(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCampaignJSON(bad)
	if err == nil {
		t.Fatal("bad file should fail")
	}
	if !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("error %q should name the file and the cause", err)
	}
}
