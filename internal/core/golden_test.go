package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The golden files pin the externally-consumed surfaces of a campaign: the
// JSONL event stream (seq numbering, envelope and field names) and the
// ProgressLine rendering. Dashboards and scripts parse both, so any change
// here is a compatibility break that should be a conscious decision:
//
//	go test ./internal/core -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// codeAddrs matches the two event fields whose values are program counters
// (or hashes of them). They move whenever code layout does — any edit, any
// -race build — so the goldens pin them as 0, exactly as CI's norm() does
// for the cross-binary e2e diff.
var codeAddrs = regexp.MustCompile(`"(site|stackHash)": ?[0-9]+`)

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	got = codeAddrs.ReplaceAll(got, []byte(`"$1":0`))
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden file.\nIf the change is intentional, regenerate with:\n  go test ./internal/core -run TestGolden -update\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// goldenCampaign runs the pinned campaign: a seeded adaptive run, one point
// at a time, small enough to keep the stream reviewable but large enough to emit
// settle and refine events.
func goldenCampaign(t *testing.T, obs Observer) {
	t.Helper()
	opts := adaptiveTestOptions()
	opts.Seed = 7
	opts.Observer = obs
	if _, err := supTestEngine(t, opts).RunCampaign(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenAdaptiveEventStream pins the JSONL event stream of a seeded
// adaptive campaign, and checks the envelope invariant consumers rely on:
// seq starts at 1 and increases by exactly one per line.
func TestGoldenAdaptiveEventStream(t *testing.T) {
	var buf bytes.Buffer
	jo := NewJSONLObserver(&buf)
	goldenCampaign(t, jo)
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	sawSettled, sawRefined := false, false
	for i, line := range lines {
		var env struct {
			Seq   int             `json:"seq"`
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("line %d is not a valid envelope: %v\n%s", i+1, err, line)
		}
		if env.Seq != i+1 {
			t.Fatalf("line %d: seq %d (stream has a gap or reordering)", i+1, env.Seq)
		}
		switch env.Event {
		case "PointSettled":
			sawSettled = true
		case "PointRefined":
			sawRefined = true
		}
	}
	if !sawSettled || !sawRefined {
		t.Fatalf("pinned campaign emitted settled=%t refined=%t; want both (adjust the campaign, not the assertion)",
			sawSettled, sawRefined)
	}

	goldenCompare(t, "adaptive_stream.golden.jsonl", buf.Bytes())
}

// TestGoldenProgressLine pins the ProgressLine rendering over the same
// campaign: the line after every event plus the final snapshot, with the
// clock frozen so rate/ETA segments stay deterministic.
func TestGoldenProgressLine(t *testing.T) {
	stats := NewStreamStats()
	stats.now = func() time.Time { return time.Unix(1700000000, 0) }

	var lines bytes.Buffer
	last := ""
	goldenCampaign(t, MultiObserver(stats, ObserverFunc(func(Event) {
		// Record only transitions, mirroring how a terminal consumer
		// redraws: identical consecutive lines carry no information.
		if l := stats.Snapshot().ProgressLine(); l != last {
			lines.WriteString(l + "\n")
			last = l
		}
	})))

	sn := stats.Snapshot()
	if !sn.Finished || sn.Cancelled {
		t.Fatalf("campaign did not finish cleanly: %+v", sn)
	}
	if sn.Settled == 0 {
		t.Fatal("pinned campaign settled no points; ProgressLine's settled clause is untested")
	}
	goldenCompare(t, "adaptive_progress.golden.txt", lines.Bytes())
}
