package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/sense"
)

// The sense suite pins the two contracts of the cross-campaign advisor
// integration: a fully closed gate (1.0) leaves every campaign surface
// byte-identical to a never-sensed run, and an open gate actually serves
// zero-trial predictions that agree with what injection would have
// measured, with every observation surface (result, event stream, progress
// line, persisted JSON, summary) reporting them consistently.

// senseSyntheticModel trains a model on synthetic records from two fake
// apps sharing one learnable rule (error-handling sites deep in the stack
// crash; everything else succeeds). Cheap enough to build per test.
func senseSyntheticModel(t *testing.T) *sense.Model {
	t.Helper()
	var recs []sense.Record
	for ai, app := range []string{"alpha", "beta"} {
		rng := rand.New(rand.NewSource(int64(ai + 1)))
		for i := 0; i < 40; i++ {
			f := sense.Features{
				App:         app,
				Ranks:       4,
				CollType:    rng.Intn(9),
				Phase:       rng.Intn(4),
				ErrHandling: rng.Intn(2) == 0,
				IsRoot:      rng.Intn(2) == 0,
				NInv:        1 + rng.Intn(3),
				StackDepth:  2 + rng.Intn(4),
				NDiffStacks: 1 + rng.Intn(2),
			}
			dom := 0
			if f.ErrHandling && f.StackDepth >= 3 {
				dom = 3
			}
			counts := make([]int, sense.Classes)
			counts[dom] = 10
			counts[(dom+1)%sense.Classes] = 2
			recs = append(recs, sense.Record{Features: f, Counts: counts, Trials: 12})
		}
	}
	m, err := sense.Train(recs, sense.TrainConfig{Seed: 11, Trees: 15, Depth: 6})
	if err != nil {
		t.Fatalf("training synthetic model: %v", err)
	}
	return m
}

// runSenseLeg runs one serial campaign capturing both externally-consumed
// surfaces, mirroring runDiffSerial but with the caller's advisor wiring.
func runSenseLeg(t *testing.T, opts Options) (*CampaignResult, diffCampaign) {
	t.Helper()
	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	opts.Observer = jo
	res, err := diffTestEngine(t, opts).RunCampaign()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	return res, diffCampaign{json: campaignBytes(t, res), stream: stream.Bytes()}
}

// TestSenseGateIdentity is the differential contract of the confidence
// gate: with the gate at 1.0 the advisor is consulted but never serves, and
// the campaign JSON and JSONL event stream must be byte-identical to a run
// that never had an advisor — on the direct, ML and adaptive paths alike.
func TestSenseGateIdentity(t *testing.T) {
	model := senseSyntheticModel(t)
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		// The full 20-seed sweep is the uninstrumented CI step's job.
		seeds = 4
	}
	paths := []struct {
		name string
		conf func(seed int64) Options
	}{
		{"direct", func(seed int64) Options {
			return diffTestOptions(seed)
		}},
		{"ml", func(seed int64) Options {
			opts := diffTestOptions(seed)
			opts.ML.Pruning = true
			opts.ML.Batch = 2
			opts.ML.MinTrain = 4
			return opts
		}},
		{"adaptive", func(seed int64) Options {
			opts := diffTestOptions(seed)
			opts.Adaptive.Enabled = true
			opts.TrialsPerPoint = 12
			return opts
		}},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, path := range paths {
				path := path
				t.Run(path.name, func(t *testing.T) {
					_, plain := runSenseLeg(t, path.conf(seed))

					gated := path.conf(seed)
					advisor := sense.NewAdvisor(model, sense.AdvisorConfig{Gate: 1.0})
					gated.Sense.Advisor = advisor
					res, sensed := runSenseLeg(t, gated)

					// The advisor must have actually been consulted — a
					// vacuous pass (advisor never wired in) is a test bug.
					st := advisor.Stats()
					if st.Served != 0 {
						t.Fatalf("gate 1.0 served %d predictions; must serve none", st.Served)
					}
					if st.Fallback == 0 {
						t.Fatal("advisor was never consulted; identity check is vacuous")
					}
					if len(res.SenseAdvised) != 0 {
						t.Fatalf("gate 1.0 recorded %d advised points", len(res.SenseAdvised))
					}
					if !bytes.Equal(plain.json, sensed.json) {
						t.Errorf("%s: campaign JSON diverges between never-sensed and gate-1.0 runs\nplain:  %s\nsensed: %s",
							path.name, plain.json, sensed.json)
					}
					if !bytes.Equal(plain.stream, sensed.stream) {
						t.Errorf("%s: JSONL event stream diverges between never-sensed and gate-1.0 runs\nplain:\n%s\nsensed:\n%s",
							path.name, plain.stream, sensed.stream)
					}
				})
			}
		})
	}
}

// TestSenseAdvisorServesZeroTrial is the positive path: a model trained on
// decisive evidence for this workload's subspaces (the baseline campaign's
// pooled dominant labels amplified to unambiguous tallies, re-labelled as a
// second app to satisfy the two-app training floor) serves zero-trial
// predictions for a new campaign, every advice agrees with the baseline's
// pooled dominant outcome, and every observation surface reports the served
// points consistently.
func TestSenseAdvisorServesZeroTrial(t *testing.T) {
	const gate = 0.3

	opts := diffTestOptions(3)
	base, _ := runSenseLeg(t, opts)
	if len(base.Measured) == 0 {
		t.Fatal("baseline campaign measured no points")
	}
	recs := SenseRecords(base)
	if len(recs) != len(base.Measured) {
		t.Fatalf("SenseRecords dropped points: %d records from %d measured", len(recs), len(base.Measured))
	}

	// Pooled dominant outcome per feature subspace — the granularity the
	// advisor predicts at — plus decisive training records asserting exactly
	// those labels from two "apps". Each subspace is surrounded by jittered
	// neighbours carrying the same label so the forest learns regions rather
	// than memorising single rows (pooling would collapse exact replicas).
	dominant := map[sense.Features]int{}
	var train []sense.Record
	for _, r := range sense.PoolBySubspace(recs) {
		dominant[r.Features] = r.Dominant()
		counts := make([]int, sense.Classes)
		counts[r.Dominant()] = 30
		for j := 0; j < 5; j++ {
			f := r.Features
			f.NInv += j
			f.NDiffStacks += j % 3
			decisive := sense.Record{Features: f, Counts: append([]int(nil), counts...), Trials: 30}
			train = append(train, decisive)
			decisive.App = "other"
			decisive.Counts = append([]int(nil), counts...)
			train = append(train, decisive)
		}
	}
	model, err := sense.Train(train, sense.TrainConfig{Seed: 11})
	if err != nil {
		t.Fatalf("training on campaign records: %v", err)
	}

	sensed := diffTestOptions(3)
	advisor := sense.NewAdvisor(model, sense.AdvisorConfig{Gate: gate})
	sensed.Sense.Advisor = advisor
	stats := NewStreamStats()
	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	sensed.Observer = MultiObserver(stats, jo)
	res, err2 := diffTestEngine(t, sensed).RunCampaign()
	if err2 != nil {
		t.Fatalf("sensed campaign: %v", err2)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}

	if len(res.SenseAdvised) == 0 {
		t.Fatalf("advisor trained on this very campaign's subspaces served nothing at gate %v", gate)
	}
	if len(res.Measured)+len(res.SenseAdvised) != len(base.Measured) {
		t.Fatalf("measured %d + advised %d != baseline %d: points lost or duplicated",
			len(res.Measured), len(res.SenseAdvised), len(base.Measured))
	}
	for _, a := range res.SenseAdvised {
		f := senseFeatures(base.AppName, base.Ranks, base.Policy, a.Point)
		want, ok := dominant[f]
		if !ok {
			t.Fatalf("advised point %v not in baseline campaign", a.Point)
		}
		if int(a.Outcome) != want {
			t.Errorf("advised point %v: predicted %v, baseline pooled dominant is %v", a.Point, a.Outcome, want)
		}
		if a.Confidence <= gate || a.Confidence >= 1 {
			t.Errorf("advised point %v: confidence %v outside (gate, 1)", a.Point, a.Confidence)
		}
	}

	// Event stream and progress surfaces.
	sn := stats.Snapshot()
	if sn.SenseServed != len(res.SenseAdvised) {
		t.Fatalf("StreamStats served %d; result has %d advised", sn.SenseServed, len(res.SenseAdvised))
	}
	if sn.SenseFallback != len(res.Measured) {
		t.Fatalf("StreamStats fallback %d; result measured %d", sn.SenseFallback, len(res.Measured))
	}
	if line := sn.ProgressLine(); !strings.Contains(line, "sense") {
		t.Fatalf("ProgressLine lacks the sense segment: %q", line)
	}
	if !bytes.Contains(stream.Bytes(), []byte(`"event":"SenseStats"`)) {
		t.Fatal("JSONL stream has no SenseStats event")
	}
	if !strings.Contains(res.Summary(), "sense advised") {
		t.Fatalf("Summary lacks the sense segment: %q", res.Summary())
	}

	// Persisted JSON round-trips the advised points exactly.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCampaignJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SenseAdvised) != len(res.SenseAdvised) {
		t.Fatalf("round-trip kept %d advised points of %d", len(got.SenseAdvised), len(res.SenseAdvised))
	}
	for i, a := range got.SenseAdvised {
		if a != res.SenseAdvised[i] {
			t.Fatalf("round-trip advised[%d] = %+v, want %+v", i, a, res.SenseAdvised[i])
		}
	}
}

// TestReadCampaignJSONRejectsBadSenseAdvice pins the validation errors for
// hand-edited or corrupt senseAdvised entries.
func TestReadCampaignJSONRejectsBadSenseAdvice(t *testing.T) {
	mk := func(outcome int, confidence float64) string {
		return fmt.Sprintf(`{"version":1,"app":"x","ranks":2,"senseAdvised":[{"point":{"rank":0},"outcome":%d,"confidence":%g}]}`,
			outcome, confidence)
	}
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"outcome-negative", mk(-1, 0.8), "invalid outcome"},
		{"outcome-too-large", mk(99, 0.8), "invalid outcome"},
		{"confidence-negative", mk(0, -0.1), "outside [0,1)"},
		{"confidence-one", mk(0, 1), "outside [0,1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCampaignJSON(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
