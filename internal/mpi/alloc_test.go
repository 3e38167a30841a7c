package mpi

import (
	"testing"
)

// The allocation-regression suite pins the steady-state allocation cost of
// every collective at 32 ranks with the buffer arena active. Each budget
// is allocations per collective invocation across the WHOLE 32-rank world
// (not per rank), measured as a two-point slope so per-run fixed costs
// (goroutines, result slices, waitgroups) cancel out. The budgets carry
// roughly 2× headroom over measured values; an accidental per-op
// allocation on the hot path (a dropped slab, an escaping Args literal, a
// message copy) costs tens to hundreds of allocations per op at this rank
// count and fails immediately.

const allocRanks = 32

// collAllocSlope measures allocations per collective op on a plain
// allocRanks-rank world.
func collAllocSlope(t *testing.T, body func(r *Rank, iters int)) float64 {
	t.Helper()
	return allocSlope(t, func(int) RunOptions { return RunOptions{NumRanks: allocRanks, Seed: 1} }, body)
}

// allocSlope measures allocations per loop iteration of body: it runs the
// body at two iteration counts inside full Run calls (configured by
// opts(iters)) and divides the allocation delta by the iteration delta.
func allocSlope(t *testing.T, opts func(iters int) RunOptions, body func(r *Rank, iters int)) float64 {
	t.Helper()
	run := func(iters int) float64 {
		o := opts(iters)
		return testing.AllocsPerRun(3, func() {
			res := Run(o, func(r *Rank) error {
				body(r, iters)
				return nil
			})
			if err := res.FirstError(); err != nil {
				t.Errorf("run failed: %v", err)
			}
			if res.Deadlock || res.TimedOut {
				t.Errorf("run hung: deadlock=%v timeout=%v", res.Deadlock, res.TimedOut)
			}
		})
	}
	const k1, k2 = 8, 24
	run(k2) // warm the arena pools to steady state
	a1 := run(k1)
	a2 := run(k2)
	slope := (a2 - a1) / float64(k2-k1)
	if slope < 0 {
		slope = 0
	}
	return slope
}

func TestCollectiveAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("allocation slopes need repeated 32-rank runs")
	}

	const n = 8 // elements per rank per op

	cases := []struct {
		name   string
		budget float64
		body   func(r *Rank, iters int)
	}{
		{"Barrier", 16, func(r *Rank, iters int) {
			for i := 0; i < iters; i++ {
				r.Barrier(CommWorld)
			}
		}},
		{"Bcast", 16, func(r *Rank, iters int) {
			buf := r.NewFloat64Buffer(n)
			defer buf.Release()
			for i := 0; i < iters; i++ {
				r.Bcast(buf, n, Float64, 0, CommWorld)
			}
		}},
		{"Reduce", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Reduce(send, recv, n, Float64, OpSum, 0, CommWorld)
			}
		}},
		{"Allreduce", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Allreduce(send, recv, n, Float64, OpSum, CommWorld)
			}
		}},
		{"Scatter", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n * allocRanks)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Scatter(send, recv, n, Float64, 0, CommWorld)
			}
		}},
		{"Gather", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n * allocRanks)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Gather(send, recv, n, Float64, 0, CommWorld)
			}
		}},
		{"Allgather", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n * allocRanks)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Allgather(send, recv, n, Float64, CommWorld)
			}
		}},
		{"Alltoall", 64, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n * allocRanks)
			recv := r.NewFloat64Buffer(n * allocRanks)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Alltoall(send, recv, n, Float64, CommWorld)
			}
		}},
		{"Alltoallv", 64, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n * allocRanks)
			recv := r.NewFloat64Buffer(n * allocRanks)
			defer send.Release()
			defer recv.Release()
			counts := make([]int32, allocRanks)
			displs := make([]int32, allocRanks)
			for p := range counts {
				counts[p] = n
				displs[p] = int32(p * n)
			}
			for i := 0; i < iters; i++ {
				r.Alltoallv(send, counts, displs, recv, counts, displs, Float64, CommWorld)
			}
		}},
		{"ReduceScatter", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n * allocRanks)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			counts := make([]int32, allocRanks)
			for p := range counts {
				counts[p] = n
			}
			for i := 0; i < iters; i++ {
				r.ReduceScatter(send, recv, counts, Float64, OpSum, CommWorld)
			}
		}},
		{"Scan", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			for i := 0; i < iters; i++ {
				r.Scan(send, recv, n, Float64, OpSum, CommWorld)
			}
		}},
		{"Scatterv", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n * allocRanks)
			recv := r.NewFloat64Buffer(n)
			defer send.Release()
			defer recv.Release()
			counts := make([]int32, allocRanks)
			displs := make([]int32, allocRanks)
			for p := range counts {
				counts[p] = n
				displs[p] = int32(p * n)
			}
			for i := 0; i < iters; i++ {
				r.Scatterv(send, counts, displs, recv, n, Float64, 0, CommWorld)
			}
		}},
		{"Gatherv", 16, func(r *Rank, iters int) {
			send := r.NewFloat64Buffer(n)
			recv := r.NewFloat64Buffer(n * allocRanks)
			defer send.Release()
			defer recv.Release()
			counts := make([]int32, allocRanks)
			displs := make([]int32, allocRanks)
			for p := range counts {
				counts[p] = n
				displs[p] = int32(p * n)
			}
			for i := 0; i < iters; i++ {
				r.Gatherv(send, n, recv, counts, displs, Float64, 0, CommWorld)
			}
		}},
	}

	if len(cases) != int(NumCollTypes) {
		t.Fatalf("budget table covers %d collectives; runtime has %d", len(cases), NumCollTypes)
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			slope := collAllocSlope(t, tc.body)
			t.Logf("%s: %.1f allocs/op (budget %.0f) at %d ranks", tc.name, slope, tc.budget, allocRanks)
			if slope > tc.budget {
				t.Errorf("%s allocates %.1f per op at %d ranks; budget is %.0f — a hot-path allocation crept in",
					tc.name, slope, allocRanks, tc.budget)
			}
		})
	}
}

// haloPlane is mg's paper-scale message: one 64 x 64 plane, 32 KB.
const haloPlane = 64 * 64

// ringExchange is the halo codes' inner step: every rank sends a plane to
// both ring neighbours and receives theirs into buffers it keeps.
func ringExchange(r *Rank, iters int) {
	n := r.NumRanks()
	up, down := (r.ID()+1)%n, (r.ID()+n-1)%n
	u := make([]float64, haloPlane)
	below, above := make([]float64, haloPlane), make([]float64, haloPlane)
	for i := 0; i < iters; i++ {
		u[0] = float64(i)
		r.SendFloat64s(CommWorld, up, 21, u)
		r.SendFloat64s(CommWorld, down, 22, u)
		below = r.RecvFloat64sInto(CommWorld, down, 21, below)
		above = r.RecvFloat64sInto(CommWorld, up, 22, above)
		if len(below) != haloPlane || len(above) != haloPlane || below[0] != float64(i) || above[0] != float64(i) {
			r.Abort("halo exchange delivered the wrong plane")
		}
	}
}

// TestP2PAllocBudgets pins the typed point-to-point path the way
// TestCollectiveAllocBudgets pins the collectives: a live, pooled
// SendFloat64s + RecvFloat64sInto ring exchange at 32 ranks — 64 messages
// of 32 KB per iteration across the world — allocates nothing in steady
// state. The budget of one allocation per iteration is noise headroom (a
// GC emptying a pool mid-run); a single per-message allocation reads 64.
// The semantics subtests pin what that path may never trade away.
func TestP2PAllocBudgets(t *testing.T) {
	t.Run("RingExchange", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race instrumentation allocates; budgets are meaningless under -race")
		}
		if testing.Short() {
			t.Skip("allocation slopes need repeated 32-rank runs")
		}
		slope := collAllocSlope(t, ringExchange)
		t.Logf("ring exchange: %.2f allocs per 64-message iteration at %d ranks", slope, allocRanks)
		if slope > 1 {
			t.Errorf("ring exchange allocates %.2f per iteration at %d ranks; the typed p2p path must allocate nothing per message", slope, allocRanks)
		}
	})
	t.Run("Semantics/pooled", func(t *testing.T) { recvIntoSemantics(t, false) })
	t.Run("Semantics/unpooled", func(t *testing.T) { recvIntoSemantics(t, true) })
}

// pingPongThenBarrier exchanges a plane back and forth between two ranks
// iters times, then enters the barrier a forked trial is cut at.
func pingPongThenBarrier(r *Rank, iters int) {
	peer := 1 - r.ID()
	u := make([]float64, haloPlane)
	in := make([]float64, haloPlane)
	for i := 0; i < iters; i++ {
		if r.ID() == 0 {
			r.SendFloat64s(CommWorld, peer, 5, u)
			in = r.RecvFloat64sInto(CommWorld, peer, 6, in)
		} else {
			in = r.RecvFloat64sInto(CommWorld, peer, 5, in)
			r.SendFloat64s(CommWorld, peer, 6, u)
		}
	}
	r.Barrier(CommWorld)
}

// TestReplayedTypedP2PAllocatesNothing is the regression test for the
// marshal-then-discard bug: a SendFloat64s inside the replayed prefix of a
// forked run used to encode its whole payload (into an arena buffer) before
// the replay threw it away. A replayed send/receive pair must cost tape
// steps only: no allocation, and no request to the arena — which the
// unpooled leg shows, because there every such request is a make.
func TestReplayedTypedP2PAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets are meaningless under -race")
	}
	for _, disablePooling := range []bool{false, true} {
		// One fork per iteration count, cut at the closing barrier so every
		// exchange lies in the replayed prefix.
		forkAt := func(iters int) RunOptions {
			rec := Run(RunOptions{NumRanks: 2, Seed: 1, Record: true}, func(r *Rank) error {
				pingPongThenBarrier(r, iters)
				return nil
			})
			if !rec.Trace.Forkable() {
				t.Fatalf("ping-pong trace not forkable: %s", rec.Trace.Reason())
			}
			events := rec.Trace.ranks[0].events
			barrier := events[len(events)-1]
			f := rec.Trace.Fork(0, barrier.site, int(barrier.inv))
			if f == nil || f.Cut(0) != 2*iters || f.Cut(1) != 2*iters {
				t.Fatalf("fork at the barrier does not replay all %d exchanges: %+v", iters, f)
			}
			return RunOptions{NumRanks: 2, Seed: 1, Fork: f, DisablePooling: disablePooling}
		}
		slope := allocSlope(t, forkAt, pingPongThenBarrier)
		if slope != 0 {
			t.Errorf("replayed SendFloat64s/RecvFloat64sInto pair allocates %.2f per exchange (DisablePooling=%t); want 0",
				slope, disablePooling)
		}
	}
}

// flipSentBit is a P2PHook flipping one bit of the first byte of every
// send's payload — the p2p data fault.
type flipSentBit struct{ NopHook }

func (flipSentBit) BeforeP2P(call *P2PCall) {
	if call.Kind == P2PSend && len(call.Args.Data) > 0 {
		call.Args.Data[0] ^= 1
	}
}

// truncateSent is a P2PHook replacing every send's payload with its first
// eight bytes: a substitute that still aliases the sender's slab.
type truncateSent struct{ NopHook }

func (truncateSent) BeforeP2P(call *P2PCall) {
	if call.Kind == P2PSend && len(call.Args.Data) > 8 {
		call.Args.Data = call.Args.Data[:8]
	}
}

// recvIntoSemantics pins what a receive into caller storage returns, pooled
// and unpooled alike: always a slice of the message's length — inside dst
// when it fits, fresh (dst untouched) when it does not — so a corrupted
// count indexes past it exactly as it did past the slice RecvFloat64s used
// to allocate.
func recvIntoSemantics(t *testing.T, disablePooling bool) {
	var hook Hook
	exchange := func(msg, dst []float64) (got []float64) {
		res := Run(RunOptions{NumRanks: 2, Seed: 1, Hook: hook, DisablePooling: disablePooling}, func(r *Rank) error {
			if r.ID() == 0 {
				r.SendFloat64s(CommWorld, 1, 3, msg)
			} else {
				got = r.RecvFloat64sInto(CommWorld, 0, 3, dst)
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	sameStorage := func(a, b []float64) bool { return &a[:1][0] == &b[:1][0] }

	// Shorter than dst: the message's length, dst's storage and capacity,
	// and dst's tail left alone.
	dst := []float64{9, 9, 9, 9}
	got := exchange([]float64{1, 2}, dst)
	if len(got) != 2 || cap(got) != 4 || !sameStorage(got, dst) || got[0] != 1 || got[1] != 2 || dst[2] != 9 || dst[3] != 9 {
		t.Errorf("short message: got %v (cap %d), dst %v", got, cap(got), dst)
	}

	// Longer than cap(dst): a fresh slice, dst unmodified.
	dst = []float64{9, 9}
	got = exchange([]float64{1, 2, 3}, dst)
	if len(got) != 3 || sameStorage(got, dst) || got[2] != 3 || dst[0] != 9 || dst[1] != 9 {
		t.Errorf("long message: got %v, dst %v", got, dst)
	}

	// Zero-length message: an empty view of dst; a nil dst gets the empty
	// non-nil slice RecvFloat64s always returned.
	dst = []float64{9}
	if got = exchange(nil, dst); got == nil || len(got) != 0 || cap(got) != 1 || dst[0] != 9 {
		t.Errorf("empty message: got %v (cap %d), dst %v", got, cap(got), dst)
	}
	if got = exchange(nil, nil); got == nil || len(got) != 0 {
		t.Errorf("empty message into nil: got %#v", got)
	}

	// A p2p data fault corrupts what is received, never what the sender
	// still holds.
	hook = flipSentBit{}
	sent := []float64{1, 2}
	got = exchange(sent, make([]float64, 2))
	if got[0] == 1 || got[1] != 2 || sent[0] != 1 || sent[1] != 2 {
		t.Errorf("data fault: received %v, sender holds %v", got, sent)
	}

	// A hook that substitutes the payload is what gets transmitted.
	hook = truncateSent{}
	if got = exchange([]float64{1, 2, 3}, make([]float64, 3)); len(got) != 1 || got[0] != 1 {
		t.Errorf("substituted payload: received %v, want [1]", got)
	}
}

// TestKilledRanksShareOneError: the ranks a kill wakes all die with one
// boxed Killed. A pooled 32-rank run in which k ranks park on a receive
// that never comes and the rest return is a deadlock that kills the k. A
// killed rank's panic costs the one record the runtime allocates to
// recover it (savedOpenDeferState); boxing a Killed per rank in park and
// again in panicToError cost two allocations more.
func TestKilledRanksShareOneError(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets are meaningless under -race")
	}
	run := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			res := Run(RunOptions{NumRanks: allocRanks, Seed: 1}, func(r *Rank) error {
				if r.ID() >= allocRanks-k {
					r.Recv(CommWorld, 0, 1)
				}
				return nil
			})
			if !res.Deadlock {
				t.Fatalf("%d parked ranks: provenance %q, want a deadlock", k, res.Provenance)
			}
		})
	}
	run(allocRanks - 1) // warm the shell pool
	a1, a31 := run(1), run(allocRanks-1)
	slope := (a31 - a1) / float64(allocRanks-2)
	t.Logf("%.0f allocs with 1 killed rank, %.0f with %d: %.2f per killed rank", a1, a31, allocRanks-1, slope)
	if slope > 1.5 {
		t.Errorf("a killed rank costs %.2f allocations, more than its recover; its error must be the world's one boxed Killed", slope)
	}
}
