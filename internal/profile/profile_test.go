package profile

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/mpi"
)

// runProfiled executes fn on n ranks under a Collector and returns the
// profile.
func runProfiled(t *testing.T, n int, fn func(r *mpi.Rank) error) *Profile {
	t.Helper()
	col := NewCollector(n)
	res := mpi.Run(mpi.RunOptions{NumRanks: n, Seed: 5, Timeout: 10 * time.Second, Hook: col}, fn)
	if err := res.FirstError(); err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	return col.Finish()
}

func TestCollectorCountsSitesAndInvocations(t *testing.T) {
	p := runProfiled(t, 4, func(r *mpi.Rank) error {
		for i := 0; i < 3; i++ {
			r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld) // site A, 3 invocations
		}
		r.Barrier(mpi.CommWorld) // site B, 1 invocation
		return nil
	})
	if p.Ranks != 4 {
		t.Fatalf("ranks = %d", p.Ranks)
	}
	// 2 sites per rank... the Allreduce convenience helper is one site.
	perRank := p.SitesOnRank(0)
	if len(perRank) != 2 {
		t.Fatalf("sites on rank 0 = %d, want 2", len(perRank))
	}
	if p.TotalPoints() != 4*(3+1) {
		t.Fatalf("total points = %d, want 16", p.TotalPoints())
	}
	for _, s := range perRank {
		switch s.Type {
		case mpi.CollAllreduce:
			if s.Invocations() != 3 {
				t.Errorf("allreduce invocations = %d", s.Invocations())
			}
			if s.DistinctStacks() != 1 {
				t.Errorf("allreduce distinct stacks = %d, want 1 (same loop)", s.DistinctStacks())
			}
		case mpi.CollBarrier:
			if s.Invocations() != 1 {
				t.Errorf("barrier invocations = %d", s.Invocations())
			}
		default:
			t.Errorf("unexpected site type %v", s.Type)
		}
	}
}

// helperA and helperB give the same call site two distinct call stacks.
// They must not be inlined: with inlining the compiler would materialise a
// distinct PC per textual call, which is also correct behaviour but not
// what this test exercises.
//
//go:noinline
func helperA(r *mpi.Rank) { r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld) }

//go:noinline
func helperB(r *mpi.Rank) { helperA(r) }

func TestCollectorDistinguishesCallStacks(t *testing.T) {
	p := runProfiled(t, 2, func(r *mpi.Rank) error {
		helperA(r) // stack: Main -> helperA
		helperB(r) // stack: Main -> helperB -> helperA
		helperA(r)
		return nil
	})
	sites := p.SitesOnRank(0)
	if len(sites) != 1 {
		t.Fatalf("expected 1 site (the collective inside helperA), got %d", len(sites))
	}
	s := sites[0]
	if s.Invocations() != 3 {
		t.Fatalf("invocations = %d", s.Invocations())
	}
	if s.DistinctStacks() != 2 {
		t.Fatalf("distinct stacks = %d, want 2", s.DistinctStacks())
	}
}

func TestCollectorRecordsPhasesAndErrHandling(t *testing.T) {
	p := runProfiled(t, 2, func(r *mpi.Rank) error {
		r.SetPhase(mpi.PhaseCompute)
		r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld)
		r.ErrCheck(func() {
			r.AllreduceFloat64(1, mpi.OpMax, mpi.CommWorld)
		})
		return nil
	})
	var sawErr, sawRegular bool
	for _, s := range p.SitesOnRank(0) {
		for _, iv := range s.Invs {
			if iv.Phase != mpi.PhaseCompute {
				t.Errorf("phase = %v", iv.Phase)
			}
			if iv.ErrHandling {
				sawErr = true
			} else {
				sawRegular = true
			}
		}
	}
	if !sawErr || !sawRegular {
		t.Fatalf("err=%v regular=%v", sawErr, sawRegular)
	}
}

func TestCollectorRecordsRootRole(t *testing.T) {
	p := runProfiled(t, 4, func(r *mpi.Rank) error {
		buf := mpi.NewFloat64Buffer(2)
		r.Bcast(buf, 2, mpi.Float64, 1, mpi.CommWorld)
		return nil
	})
	for rank := 0; rank < 4; rank++ {
		sites := p.SitesOnRank(rank)
		if len(sites) != 1 {
			t.Fatalf("rank %d sites = %d", rank, len(sites))
		}
		isRoot := sites[0].Invs[0].IsRoot
		if (rank == 1) != isRoot {
			t.Errorf("rank %d IsRoot = %v", rank, isRoot)
		}
	}
}

func TestEquivalentRanksShareHashes(t *testing.T) {
	p := runProfiled(t, 4, func(r *mpi.Rank) error {
		// Identical code path on every rank, data sizes differ per rank:
		// still pattern-equivalent.
		vals := make([]float64, 4)
		r.AllreduceFloat64s(vals, mpi.OpSum, mpi.CommWorld)
		r.Barrier(mpi.CommWorld)
		return nil
	})
	for rank := 1; rank < 4; rank++ {
		if p.CallGraphHash[rank] != p.CallGraphHash[0] {
			t.Errorf("rank %d call-graph hash differs", rank)
		}
		if p.TraceHash[rank] != p.TraceHash[0] {
			t.Errorf("rank %d trace hash differs", rank)
		}
	}
}

func TestRootRoleDistinguishesTraces(t *testing.T) {
	p := runProfiled(t, 4, func(r *mpi.Rank) error {
		buf := mpi.NewFloat64Buffer(1)
		r.Bcast(buf, 1, mpi.Float64, 0, mpi.CommWorld)
		return nil
	})
	if p.TraceHash[0] == p.TraceHash[1] {
		t.Fatalf("root and non-root should have distinct traces")
	}
	if p.TraceHash[1] != p.TraceHash[2] {
		t.Fatalf("two non-roots should share a trace")
	}
}

func TestPayloadBytes(t *testing.T) {
	p := runProfiled(t, 2, func(r *mpi.Rank) error {
		r.AllreduceFloat64s(make([]float64, 8), mpi.OpSum, mpi.CommWorld)
		return nil
	})
	s := p.SitesOnRank(0)[0]
	if s.Invs[0].Bytes != 64 {
		t.Fatalf("payload bytes = %d, want 64", s.Invs[0].Bytes)
	}
}

func TestProfileString(t *testing.T) {
	p := runProfiled(t, 2, func(r *mpi.Rank) error {
		r.Barrier(mpi.CommWorld)
		return nil
	})
	if p.String() == "" {
		t.Fatal("empty profile description")
	}
}

func TestSiteListDeterministicOrder(t *testing.T) {
	p := runProfiled(t, 4, func(r *mpi.Rank) error {
		r.Barrier(mpi.CommWorld)
		r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld)
		return nil
	})
	a := p.SiteList()
	b := p.SiteList()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("site list order unstable")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Rank > a[i].Rank || (a[i-1].Rank == a[i].Rank && a[i-1].PC >= a[i].PC) {
			t.Fatalf("site list not sorted")
		}
	}
}

// TestCollectorRecordsParameterWidths: the widths a fault wraps to are
// recorded per invocation — they may differ between invocations of one site
// — and a lookup outside the profile reports absence instead of guessing.
func TestCollectorRecordsParameterWidths(t *testing.T) {
	p := runProfiled(t, 2, func(r *mpi.Rank) error {
		for n := 1; n <= 2; n++ {
			send, recv := mpi.NewFloat64Buffer(3*n), mpi.NewFloat64Buffer(3*n)
			r.Allreduce(send, recv, 3*n, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		}
		r.Barrier(mpi.CommWorld)
		return nil
	})
	for _, s := range p.SitesOnRank(1) {
		for inv := range s.Invs {
			w, ok := p.Widths(1, s.PC, inv)
			if !ok {
				t.Fatalf("%v invocation %d: no widths recorded", s.Type, inv)
			}
			want := 0
			if s.Type == mpi.CollAllreduce {
				want = 8 * 8 * 3 * (inv + 1)
			}
			if w.Send != want || w.Recv != want || w.Counts != 0 {
				t.Errorf("%v invocation %d: widths %+v, want send=recv=%d counts=0", s.Type, inv, w, want)
			}
		}
		if _, ok := p.Widths(1, s.PC, len(s.Invs)); ok {
			t.Errorf("%v: widths reported for an invocation that never ran", s.Type)
		}
	}
	if _, ok := p.Widths(1, 0xdead, 0); ok {
		t.Error("widths reported for an unknown site")
	}
}
