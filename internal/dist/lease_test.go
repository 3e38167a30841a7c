package dist_test

import (
	"testing"

	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
)

// A shard's record batches that settle its whole range release the lease
// then and there: the shard's trailing Done batch may reach the coordinator
// only after the campaign has completed and merged, and must not find the
// range still leased. That late batch is answered Expired, the path a worker
// already takes for a reclaimed range. A range with a quarantine outstanding
// is not settled, so it stays leased until the Done batch carries the
// quarantine.
func TestSettledLeaseIsReleased(t *testing.T) {
	// The test campaign has 16 points, so each coordinator's one lease spans
	// the whole of it, and settling the range completes the campaign.
	var completed []core.ShardLease
	open := func() (*dist.Coordinator, dist.LeaseGrant) {
		t.Helper()
		coord, err := dist.NewCoordinator(testEngine(t, testOptions(1)), dist.CoordinatorOptions{
			LeaseSize: 16,
			Observer: core.ObserverFunc(func(ev core.Event) {
				if sl, ok := ev.(core.ShardLease); ok && sl.Kind == "completed" {
					completed = append(completed, sl)
				}
			}),
		})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		t.Cleanup(coord.Hub().Close)
		g, err := coord.Lease(dist.LeaseRequest{Worker: "w"})
		if err != nil || g.Hi-g.Lo != 16 {
			t.Fatalf("lease: %+v, %v; want a 16-index range", g, err)
		}
		return coord, g
	}
	journal := func(coord *dist.Coordinator, g dist.LeaseGrant, lo, hi int, quar []core.QuarantinedPoint, done bool) dist.JournalReply {
		t.Helper()
		var recs []core.PointRecord
		for idx := lo; idx < hi; idx++ {
			recs = append(recs, core.PointRecord{Index: idx})
		}
		rep, err := coord.Journal(dist.JournalBatch{LeaseID: g.LeaseID, Worker: "w", Done: done}, recs, quar)
		if err != nil {
			t.Fatalf("journal [%d,%d): %v", lo, hi, err)
		}
		return rep
	}

	coord, g := open()
	for lo := g.Lo; lo < g.Hi; lo += 8 {
		if rep := journal(coord, g, lo, lo+8, nil, false); rep.Expired || rep.Acked != 8 {
			t.Fatalf("batch at %d: %+v, want 8 acked", lo, rep)
		}
	}
	if st := coord.Status(); len(st.Leases) != 0 || !st.Complete {
		t.Fatalf("settled by its record batches, the campaign is complete %v with leases %+v; want complete with none", st.Complete, st.Leases)
	}
	if len(completed) != 1 || completed[0].Lease != g.LeaseID {
		t.Fatalf("completed events %+v, want exactly one for %s", completed, g.LeaseID)
	}
	if rep := journal(coord, g, 0, 0, nil, true); !rep.Expired {
		t.Fatalf("the trailing Done batch of a released lease was answered %+v, want Expired", rep)
	}

	completed = nil
	coord, g = open()
	last := g.Hi - 1
	journal(coord, g, g.Lo, last, nil, false)
	if st := coord.Status(); len(st.Leases) != 1 || len(completed) != 0 {
		t.Fatalf("a range with a quarantine outstanding was released early: leases %+v", st.Leases)
	}
	if rep := journal(coord, g, 0, 0, []core.QuarantinedPoint{{Index: last}}, true); rep.Expired || rep.Acked != 1 {
		t.Fatalf("the Done batch carrying the quarantine was answered %+v, want 1 acked", rep)
	}
	if st := coord.Status(); len(st.Leases) != 0 || len(completed) != 1 {
		t.Fatalf("after its Done batch: leases %+v, %d completed events; want none and 1", st.Leases, len(completed))
	}
}
