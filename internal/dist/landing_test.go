package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/fault"
)

// wireBatch builds a journal batch the way the HTTP endpoint receives one:
// every record and quarantine encoded as a checkpoint-journal line and
// decoded back through the wire decoder, so each record's tallies are the
// ones a real shard's would be.
func wireBatch(t *testing.T, leaseID string, recs []core.PointRecord, quars []core.QuarantinedPoint) (dist.JournalBatch, []core.PointRecord, []core.QuarantinedPoint) {
	t.Helper()
	b := dist.JournalBatch{LeaseID: leaseID, Worker: "w"}
	for _, rec := range recs {
		line, err := core.EncodeJournalPoint(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Records = append(b.Records, line)
	}
	for _, q := range quars {
		line, err := core.EncodeJournalQuarantine(q)
		if err != nil {
			t.Fatal(err)
		}
		b.Quarantines = append(b.Quarantines, line)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	b, gotRecs, gotQuars, err := dist.DecodeJournalBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	return b, gotRecs, gotQuars
}

// wholeRange opens a coordinator on the 16-point test campaign and leases
// its whole index space in one grant.
func wholeRange(t *testing.T, opts core.Options, copts dist.CoordinatorOptions) (*dist.Coordinator, dist.LeaseGrant) {
	t.Helper()
	copts.LeaseSize = 16
	coord, err := dist.NewCoordinator(testEngine(t, opts), copts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Hub().Close)
	g, err := coord.Lease(dist.LeaseRequest{Worker: "w"})
	if err != nil || g.Lo != 0 || g.Hi != 16 || g.Total != 16 {
		t.Fatalf("lease: %+v, %v; want the whole 16-point campaign", g, err)
	}
	return coord, g
}

// A batch that names one index twice settles it once, with the first copy,
// and the live coordinator and one recovered from its WAL hold the same
// record store: acks and progress count settled indexes, and both merge to
// the same campaign JSON.
func TestBatchLandsFirstCopyOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	var overrun []core.PointCompleted
	coord, g := wholeRange(t, testOptions(1), dist.CoordinatorOptions{
		Store: dir,
		Observer: core.ObserverFunc(func(ev core.Event) {
			if pc, ok := ev.(core.PointCompleted); ok && pc.Completed > pc.Total {
				overrun = append(overrun, pc)
			}
		}),
	})
	var recs []core.PointRecord
	for idx := g.Lo; idx < g.Hi; idx++ {
		recs = append(recs, core.PointRecord{Index: idx})
	}
	// The second copy of point 0 differs: one trial where the first has none.
	recs = append(recs, core.PointRecord{Index: 0, Result: core.PointResult{Trials: []core.TrialResult{{}}}})
	rep, err := coord.Journal(wireBatch(t, g.LeaseID, recs, nil))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if rep.Acked != 16 {
		t.Errorf("a batch of 16 points naming point 0 twice acked %d, want 16", rep.Acked)
	}
	for _, pc := range overrun {
		t.Errorf("PointCompleted for point %d reads %d/%d", pc.Index, pc.Completed, pc.Total)
	}
	if st := coord.Status(); st.Recorded != 16 || !st.Complete || strings.Contains(st.Progress, "17/16") {
		t.Errorf("status: %d recorded, complete %t, progress %q; want 16, complete, 16/16",
			st.Recorded, st.Complete, st.Progress)
	}

	// Recover a copy of the WAL as a SIGKILL after the ack would leave it,
	// then merge both coordinators.
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.MkdirAll(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(crashed), readFile(t, walPath(dir)), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := dist.RecoverCoordinator(crashed, all.Lookup, dist.CoordinatorOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(recovered.Hub().Close)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	live, err := coord.Result(ctx)
	if err != nil {
		t.Fatalf("live merge: %v", err)
	}
	again, err := recovered.Result(ctx)
	if err != nil {
		t.Fatalf("recovered merge: %v", err)
	}
	liveJSON, againJSON := jsonBytes(t, live.CampaignResult), jsonBytes(t, again.CampaignResult)
	if !bytes.Equal(liveJSON, againJSON) {
		t.Errorf("live and recovered coordinators merged different campaigns\nlive:      %s\nrecovered: %s", liveJSON, againJSON)
	}
	for _, pr := range live.Measured {
		if len(pr.Trials) != 0 {
			t.Errorf("live merge kept the second copy of point 0 (%d trials), want the first (none)", len(pr.Trials))
		}
	}
}

// A batch that records and quarantines one index settles it once.
func TestRecordAndQuarantineSettleOnce(t *testing.T) {
	coord, g := wholeRange(t, testOptions(1), dist.CoordinatorOptions{})
	var recs []core.PointRecord
	for idx := g.Lo; idx < g.Hi; idx++ {
		recs = append(recs, core.PointRecord{Index: idx})
	}
	quars := []core.QuarantinedPoint{{Index: 3, Attempts: 2, Err: "wedged"}}
	rep, err := coord.Journal(wireBatch(t, g.LeaseID, recs, quars))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	st := coord.Status()
	if rep.Acked != st.Points || st.Recorded+st.Quarantined != st.Points {
		t.Errorf("acked %d, %d recorded + %d quarantined; want %d settled once each",
			rep.Acked, st.Recorded, st.Quarantined, st.Points)
	}
}

// The coordinator's feed opens with the engine's own opening events, so a
// campaign under a standing network fault plan shows its fault domain.
func TestCoordinatorFeedOpensWithFaultDomain(t *testing.T) {
	opts := testOptions(1)
	opts.Topology = "ring"
	plan, err := fault.ParseNetPlan("link:1-2")
	if err != nil {
		t.Fatal(err)
	}
	opts.Network.Plan = plan
	coord, err := dist.NewCoordinator(testEngine(t, opts), dist.CoordinatorOptions{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Hub().Close()
	if progress := coord.Status().Progress; !strings.Contains(progress, "links down: 1") {
		t.Errorf("progress %q does not show the plan's downed link", progress)
	}
}
