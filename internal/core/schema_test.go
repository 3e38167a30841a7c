package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// schemaPoint is a point with every field non-zero (the two code-address
// fields excepted: goldenCompare pins them as 0 anyway), so each field's
// wire name shows in the golden.
func schemaPoint() Point {
	return Point{
		Rank: 3, SiteName: "main foo.go:10", Type: mpi.CollAllreduce, Invocation: 2,
		Phase: mpi.PhaseCompute, ErrHandling: true, IsRoot: true, NInv: 9, StackDepth: 4, NDiffStacks: 2,
	}
}

func schemaResult() PointResult {
	pr := PointResult{Point: schemaPoint()}
	for i, o := range []classify.Outcome{classify.Success, classify.SegFault, classify.MPIErr} {
		pr.Trials = append(pr.Trials, TrialResult{Target: fault.TargetCount, Bit: 7 * (i + 1), Outcome: o})
		pr.Counts.Add(o)
	}
	return pr
}

// schemaEvents is one fully populated value of every event type. The
// golden also renders each type's zero value, which is where omitempty
// fields (and an empty tally) show.
func schemaEvents() []Event {
	p, pr := schemaPoint(), schemaResult()
	var added classify.Counts
	added.Add(classify.WrongAns)
	return []Event{
		CampaignStarted{App: "toy", Ranks: 8, TrialsPerPoint: 3, MLPruning: true},
		FaultDomainEvent{Kind: "drop", Spec: "drop:1-2:4", Rank: 1, Peer: 2, Count: 4},
		PhaseChanged{Phase: CampaignLearning, Points: 10},
		PointStarted{Index: 5, Point: p},
		PointCompleted{Index: 5, Result: pr, Completed: 6, Total: 10, FromCheckpoint: true},
		PointSettled{Index: 5, Point: p, Trials: 3, Budget: 12, Saved: 9, Dominant: classify.SegFault, FromCheckpoint: true},
		PointRefined{Index: 5, Result: pr, Added: added, Trials: 4, Extra: 1},
		BatchVerified{BatchSize: 3, Measured: 6, Accuracy: 0.5, Threshold: 0.65, Met: true},
		PointRetried{Index: 5, Point: p, Attempt: 1, MaxAttempts: 3, Err: "harness failure: runner panic: boom"},
		PointQuarantined{Point: QuarantinedPoint{Point: p, Index: 5, Attempts: 3, Err: "wedged"},
			Completed: 7, Total: 10, FromCheckpoint: true},
		CheckpointAppended{Path: "c.ckpt", Index: 5, Records: 6},
		SnapshotStats{Snapshots: 2, Forked: 20, Replayed: 3, Memoised: 7, Reconverged: 5, AtCheckpoint: 2},
		ShardLease{Kind: "granted", Lease: "L1", Worker: "shard-1", Lo: 0, Hi: 4},
		CampaignFinished{App: "toy", Injected: 9, Predicted: 1, Quarantined: 1, Counts: pr.Counts, Cancelled: true},
		Note{Text: "profiled toy: 100 injection points"},
	}
}

// TestGoldenWireSchema pins the three record families this package puts on
// disk or on the wire — the campaign document, the journal's point and
// quarantine payloads, the event envelope — as literal text built from
// fixed values, so the schema can be read (and a change to it reviewed)
// field by field. The app-outcome digests say that bytes moved; this file
// says which.
func TestGoldenWireSchema(t *testing.T) {
	var out bytes.Buffer
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	full := &CampaignResult{
		AppName: "toy", Ranks: 8, Policy: PolicyAllParams,
		TotalPoints: 100, AfterSemantic: 20, AfterContext: 10, Injected: 1, PredictedN: 1,
		SemanticReduction: 0.8, ContextReduction: 0.5, MLReduction: 0.1, TotalReduction: 0.99,
		VerifyAccuracy: 0.7,
		Measured:       []PointResult{schemaResult()},
		Predicted:      []Prediction{{Point: schemaPoint(), Level: 3}},
	}
	out.WriteString("# campaign document\n")
	check(full.WriteJSON(&out))
	out.WriteString("# campaign document, zero value\n")
	check((&CampaignResult{}).WriteJSON(&out))

	out.WriteString("# journal payloads\n")
	line, err := EncodeJournalPoint(PointRecord{Index: 5, Result: schemaResult(), Base: 2})
	check(err)
	fmt.Fprintf(&out, "%s\n", line)
	line, err = EncodeJournalPoint(PointRecord{})
	check(err)
	fmt.Fprintf(&out, "%s\n", line)
	line, err = EncodeJournalQuarantine(QuarantinedPoint{Point: schemaPoint(), Index: 5, Attempts: 3, Err: "wedged"})
	check(err)
	fmt.Fprintf(&out, "%s\n", line)

	// The envelopes number the schema events from 1, skipping 13: that was
	// a retired event type's, and leaving it unused keeps every other line
	// of the golden as it was.
	seq := func(i int) int {
		if i >= 12 {
			return i + 2
		}
		return i + 1
	}
	out.WriteString("# event envelopes\n")
	events := schemaEvents()
	for i, ev := range events {
		line, err := EventEnvelope(seq(i), ev)
		check(err)
		fmt.Fprintf(&out, "%s\n", line)
	}
	out.WriteString("# event envelopes, zero values\n")
	for i, ev := range events {
		line, err := EventEnvelope(seq(i), reflect.Zero(reflect.TypeOf(ev)).Interface().(Event))
		check(err)
		fmt.Fprintf(&out, "%s\n", line)
	}
	goldenCompare(t, "wire_schema.golden.txt", out.Bytes())
}

// TestWireTypesTagEveryField: a record's Go type is its schema, so an
// exported field added without a json tag would put its Go name on the wire
// (or in the file) by accident. Every field reachable from a persisted or
// streamed record must say what it is called there, or "-".
func TestWireTypesTagEveryField(t *testing.T) {
	roots := []any{campaignFile{}, journalPoint{}, journalQuarantine{}, ckptHeader{}}
	for _, ev := range schemaEvents() {
		_, data := eventJSON(ev)
		roots = append(roots, data)
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Ptr || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag := f.Tag.Get("json")
			switch {
			case f.Anonymous && tag == "": // embedded: its fields are promoted
				walk(f.Type)
			case !f.IsExported():
			case tag == "" || strings.HasPrefix(tag, ","):
				t.Errorf("%v.%s has no json name: tag it, or `json:\"-\"` to keep it off the wire", typ, f.Name)
			case tag != "-":
				walk(f.Type)
			}
		}
	}
	for _, r := range roots {
		walk(reflect.TypeOf(r))
	}
	for _, typ := range []any{CampaignResult{}, PointRecord{}, Point{}, TrialResult{}, Prediction{}, Note{}} {
		if !seen[reflect.TypeOf(typ)] {
			t.Errorf("the walk never reached %T", typ)
		}
	}
}
