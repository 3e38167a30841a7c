package mpi_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The reconvergence cut (fork.go, part 3) against the thing it stands in
// for: running the faulted trial to its end. These tests live outside the
// package so that the faults are the campaign's own — fault.Fault applied by
// fault.Injector — which package mpi cannot import.

// The collective calls of one cutTestApp iteration, in program order. Every
// rank makes the same calls, so an index names a call on any rank.
const (
	wAllreduceF = iota // convenience wrappers: runtime-owned buffers
	wAllreduceI
	wReduce
	wBcastF
	wBcastI
	wAllgatherI
	wAllgatherF
	wGather
	aBarrier // raw calls on application-owned buffers and vectors
	aBcast
	aReduce
	aAllreduce
	aScatter
	aGather
	aAllgather
	aAlltoall
	aAlltoallv
	aReduceScatter
	aScan
	aScatterv
	aGatherv
	callsPerIter
)

const cutTestIters = 2

// cutTestApp calls all thirteen collectives, through the wrappers and raw on
// buffers and count vectors it owns and reuses, with point-to-point traffic
// crossing them. After every raw call it folds everything the call could
// have touched — both whole buffers, every vector — into the value it
// reports, so a flip that outlives a call anywhere in application memory
// changes the run's result.
func cutTestApp(r *mpi.Rank) error {
	me, n := r.ID(), r.NumRanks()
	const W = mpi.CommWorld
	r.SetPhase(mpi.PhaseCompute)
	acc := float64(me + 1)
	fold := func(b *mpi.Buffer) {
		for i, x := range b.Bytes() {
			acc += float64(x) * float64(i%7+1)
		}
	}
	foldv := func(vs ...[]int32) {
		for _, v := range vs {
			for i, x := range v {
				acc += float64(x) * float64(i+1)
			}
		}
	}
	// One element longer than any call needs: every receive buffer has
	// bytes outside the result span, every send buffer bytes no call reads.
	send, recv := r.NewFloat64Buffer(2*n+1), r.NewFloat64Buffer(2*n+1)
	stage := func() {
		// Ordered by rank (rank 0 never holds a maximum), coupled to acc.
		for i := 0; i < send.Len()/8; i++ {
			send.SetFloat64(i, float64(10*(me+1)+i)+math.Mod(math.Abs(acc), 1))
			recv.SetFloat64(i, -7.25)
		}
	}
	after := func(vs ...[]int32) {
		fold(send)
		fold(recv)
		foldv(vs...)
	}
	twos, displs := make([]int32, n), make([]int32, n)
	for p := range twos {
		twos[p], displs[p] = 2, int32(2*p)
	}
	sc, sd := append([]int32(nil), twos...), append([]int32(nil), displs...)
	rc, rd := append([]int32(nil), twos...), append([]int32(nil), displs...)
	right, left := (me+1)%n, (me-1+n)%n
	halo := make([]float64, 2)

	for iter := 0; iter < cutTestIters; iter++ {
		r.Tick(100)
		root := iter % n
		small := math.Mod(math.Abs(acc), 3)

		for _, v := range r.AllreduceFloat64s([]float64{small, float64(me)}, mpi.OpSum, W) {
			acc += v
		}
		acc += float64(r.AllreduceInt64s([]int64{int64(me), 5}, mpi.OpMax, W)[0])
		for _, v := range r.ReduceFloat64s([]float64{small, 1}, mpi.OpSum, root, W) {
			acc += v
		}
		acc += r.BcastFloat64s([]float64{small, float64(me)}, root, W)[1]
		acc += float64(r.BcastInt64s([]int64{int64(me) + 3}, root, W)[0])
		for _, v := range r.AllgatherInt64s(int64(me)*3, W) {
			acc += float64(v)
		}
		for _, v := range r.AllgatherFloat64s([]float64{small}, W) {
			acc += v
		}
		for _, v := range r.GatherFloat64s([]float64{small, 2}, root, W) {
			acc += v
		}

		// A ring shift whose receive follows the barrier: a fault at the
		// barrier makes it a prestocked message.
		r.SendFloat64s(W, right, 7, []float64{acc, small})
		r.Barrier(W)
		for _, v := range r.RecvFloat64sInto(W, left, 7, halo) {
			acc += math.Mod(v, 5)
		}

		stage()
		r.Bcast(send, 2, mpi.Float64, root, W)
		after()
		stage()
		r.Reduce(send, recv, 2, mpi.Float64, mpi.OpMax, root, W)
		after()
		stage()
		r.Allreduce(send, recv, 2, mpi.Float64, mpi.OpMax, W)
		after()
		stage()
		r.Scatter(send, recv, 2, mpi.Float64, root, W)
		after()
		stage()
		r.Gather(send, recv, 2, mpi.Float64, root, W)
		after()
		stage()
		r.Allgather(send, recv, 2, mpi.Float64, W)
		after()
		stage()
		r.Alltoall(send, recv, 2, mpi.Float64, W)
		after()
		stage()
		r.Alltoallv(send, sc, sd, recv, rc, rd, mpi.Float64, W)
		after(sc, sd, rc, rd)
		stage()
		r.ReduceScatter(send, recv, rc, mpi.Float64, mpi.OpSum, W)
		after(rc)
		stage()
		r.Scan(send, recv, 2, mpi.Float64, mpi.OpSum, W)
		after()
		stage()
		r.Scatterv(send, sc, sd, recv, 2, mpi.Float64, root, W)
		after(sc, sd)
		stage()
		r.Gatherv(send, 2, recv, rc, rd, mpi.Float64, root, W)
		after(rc, rd)
	}
	r.Barrier(W)
	r.ReportResult(acc)
	return nil
}

// cutCall is one collective call of the golden run, as the injector
// addresses it, with the widths its faults wrap to.
type cutCall struct {
	site   uintptr
	inv    int
	typ    mpi.CollType
	widths fault.Widths
}

// callLog records every rank's calls in program order.
type callLog struct {
	mpi.NopHook
	mu    sync.Mutex
	calls [][]cutCall
}

func (l *callLog) BeforeCollective(c *mpi.CollectiveCall) {
	l.mu.Lock()
	l.calls[c.Rank] = append(l.calls[c.Rank], cutCall{c.Site, c.Invocation, c.Type, fault.WidthsOf(c.Args)})
	l.mu.Unlock()
}

// cutHarness is one recorded configuration of cutTestApp.
type cutHarness struct {
	opts   mpi.RunOptions
	trace  *mpi.Trace
	golden string
	calls  [][]cutCall
}

func newCutHarness(t *testing.T, ranks int, unpooled bool) *cutHarness {
	t.Helper()
	h := &cutHarness{opts: mpi.RunOptions{NumRanks: ranks, Seed: 3, DisablePooling: unpooled}}
	log := &callLog{calls: make([][]cutCall, ranks)}
	prof := h.opts
	prof.Hook = log
	h.golden = cutDigest(mpi.Run(prof, cutTestApp))
	h.calls = log.calls
	rec := h.opts
	rec.Record = true
	res := mpi.Run(rec, cutTestApp)
	if !res.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", res.Trace.Reason())
	}
	if got := cutDigest(res); got != h.golden {
		t.Fatalf("recording run differs from the profiling run:\n%s\n%s", got, h.golden)
	}
	h.trace = res.Trace
	for rank, cs := range h.calls {
		if len(cs) != cutTestIters*callsPerIter+1 {
			t.Fatalf("rank %d made %d collective calls, the call index assumes %d", rank, len(cs), cutTestIters*callsPerIter+1)
		}
	}
	return h
}

// call returns rank's call of the given kind in iteration iter.
func (h *cutHarness) call(rank, iter, kind int) cutCall {
	return h.calls[rank][iter*callsPerIter+kind]
}

// trial runs one fault both ways: forked from its injection prefix, where
// the run may be cut, and replayed in full from t=0, where it cannot.
func (h *cutHarness) trial(t *testing.T, rank int, c cutCall, target fault.Target, bit int) (forked mpi.RunResult, full string) {
	t.Helper()
	f := fault.Fault{Rank: rank, Site: c.site, Invocation: c.inv, Target: target, Bit: bit}
	fk := h.trace.Fork(rank, c.site, c.inv)
	if fk == nil {
		t.Fatalf("no fork for %v", f)
	}
	run := func(fk *mpi.Fork) mpi.RunResult {
		o := h.opts
		inj := fault.NewInjector(nil, f)
		o.Hook, o.Fork = inj, fk
		res := mpi.Run(o, cutTestApp)
		if len(inj.Applied())+len(inj.Missed()) != 1 {
			t.Fatalf("%v (%v): the injector did not reach its call", f, c.typ)
		}
		return res
	}
	forked = run(fk)
	replayed := run(nil)
	if replayed.Reconverged {
		t.Fatalf("%v (%v): a full replay reports Reconverged", f, c.typ)
	}
	full = cutDigest(replayed)
	if forked.KillReason() == mpi.WhyDecided {
		if d := decidedDiff(forked, replayed, rank); d != "" {
			t.Fatalf("%v (%v): decided run differs from full replay: %s\nforked:\n%sreplayed:\n%s", f, c.typ, d, cutDigest(forked), full)
		}
		return forked, full
	}
	if got := cutDigest(forked); got != full {
		t.Fatalf("%v (%v), cut=%t: forked run differs from full replay\nforked:\n%sreplayed:\n%s", f, c.typ, forked.Reconverged, got, full)
	}
	return forked, full
}

func cutDigest(res mpi.RunResult) string {
	s := fmt.Sprintf("deadlock=%v timedout=%v\n", res.Deadlock, res.TimedOut)
	for _, rr := range res.Ranks {
		s += rankDigest(rr)
	}
	return s
}

func rankDigest(rr mpi.RankResult) string {
	errs := ""
	if rr.Err != nil {
		errs = rr.Err.Error()
	}
	return fmt.Sprintf("rank %d err=%q values=%v\n", rr.Rank, errs, rr.Values)
}

// decidedDiff says how a decided forked run — its faulted rank failed while
// the others were held, and they never ran (fork.go, part 5) — differs from
// the same fault replayed in full, "" when it does not. The held ranks'
// errors name the decided kill where the full replay's starved peers name
// theirs, so per rank only the faulted one is compared; the verdict inputs
// (Deadlock, TimedOut, FirstError) are compared whole. Every held rank must
// be killed for the decision, and no rank of the full replay but the
// faulted one may fail on its own: it could only ever see golden data.
func decidedDiff(forked, full mpi.RunResult, faulted int) string {
	if a, b := fmt.Sprintf("deadlock=%v timedout=%v first=%v", forked.Deadlock, forked.TimedOut, forked.FirstError()),
		fmt.Sprintf("deadlock=%v timedout=%v first=%v", full.Deadlock, full.TimedOut, full.FirstError()); a != b {
		return a + " vs " + b
	}
	if a, b := rankDigest(forked.Ranks[faulted]), rankDigest(full.Ranks[faulted]); a != b {
		return "faulted " + a + " vs " + b
	}
	for i := range forked.Ranks {
		if i == faulted {
			continue
		}
		if err := forked.Ranks[i].Err; err != (mpi.Killed{Reason: mpi.WhyDecided}) {
			return fmt.Sprintf("held rank %d ended with %v", i, err)
		}
		switch err := full.Ranks[i].Err.(type) {
		case mpi.SegFault, mpi.MPIError, mpi.AppError:
			return fmt.Sprintf("rank %d of the full replay failed on its own: %v", i, err)
		}
	}
	return ""
}

// cutBits picks, for one target of one call, a bit inside the part of the
// parameter the call uses, one in its last byte or word (outside the result
// span of the oversized application buffers) and a raw index far past the
// width, which Apply wraps. An absent parameter (a wrapper's zero-length
// recv buffer on a non-root) has the one fault that does nothing.
func cutBits(width int) []int {
	if width == 0 {
		return []int{0}
	}
	return []int{5 % width, width - 3, 3*width + 9, fault.BitSpace - 1}
}

// TestForkReconvergenceProperty: for every collective type, every target
// the fault model has for it and bits inside, outside and wrapped onto the
// parameter, on every rank, a forked run — cut or not — reports what the
// full replay reports.
func TestForkReconvergenceProperty(t *testing.T) {
	for _, cfg := range []struct {
		ranks    int
		unpooled bool
	}{{4, false}, {3, true}} { // recursive doubling, pooled; the reduce+bcast fallback, unpooled
		h := newCutHarness(t, cfg.ranks, cfg.unpooled)
		cut := map[mpi.CollType]int{}
		seen := map[mpi.CollType]bool{}
		trials, cuts := 0, 0
		iters := cutTestIters
		if testing.Short() || mpi.RaceEnabled {
			iters = 1
		}
		for rank := 0; rank < cfg.ranks; rank++ {
			for _, c := range h.calls[rank][:iters*callsPerIter] {
				seen[c.typ] = true
				for _, target := range fault.TargetsFor(c.typ) {
					for _, bit := range cutBits(c.widths.Of(target)) {
						forked, full := h.trial(t, rank, c, target, bit)
						trials++
						if forked.Reconverged {
							cuts++
							cut[c.typ]++
							if full != h.golden {
								t.Fatalf("%v %v bit %d on rank %d was cut, but the full replay is not the golden run:\n%s", c.typ, target, bit, rank, full)
							}
						}
					}
				}
			}
		}
		if len(seen) != int(mpi.NumCollTypes) {
			t.Fatalf("the sweep reached %d collective types of %d", len(seen), mpi.NumCollTypes)
		}
		if cuts == 0 || cuts == trials {
			t.Fatalf("%d of %d trials were cut; the sweep must see both kinds", cuts, trials)
		}
		t.Logf("%d ranks: %d of %d trials cut, by type %v", cfg.ranks, cuts, trials, cut)
	}
}

// TestForkReconvergenceNamedCases pins the exclusion list: faults whose
// result spans are golden on every rank and which must still run to the end,
// because the flip outlives the call in application memory or a peer never
// completes it — and one that must be cut.
func TestForkReconvergenceNamedCases(t *testing.T) {
	h := newCutHarness(t, 4, false)
	const root = 0 // iteration 0's root
	for _, tc := range []struct {
		name   string
		rank   int
		kind   int
		target fault.Target
		bit    int
		cut    bool
		golden bool // the full replay reports the golden run's values
	}{
		// Rank 0 never holds the maximum, so the result is golden everywhere;
		// the application's own send buffer keeps the flip.
		{"app-owned send buffer", 0, aAllreduce, fault.TargetSendBuf, 1, false, false},
		// A non-root never reads its count vector; the caller's slice keeps the flip.
		{"counts[] vector", 1, aGatherv, fault.TargetCountsVec, 1, false, false},
		// A non-root Reduce writes nothing: no span to overwrite the flip.
		{"recv on a non-root Reduce", 2, aReduce, fault.TargetRecvBuf, 5, false, false},
		// count 2 -> 3 at the root: the first two elements are the golden
		// maxima, the third lands past the golden span.
		{"count that writes past the span", root, aReduce, fault.TargetCount, 0, false, false},
		// count 2 -> 3: the partner sees a 24-byte message for a 16-byte receive.
		{"peer fails inside the instance", 0, aAllreduce, fault.TargetCount, 0, false, false},
		// The reduction overwrites the flipped byte.
		{"recv inside an Allreduce's span", 3, aAllreduce, fault.TargetRecvBuf, 5, true, true},
		// The same masking through a wrapper, whose send buffer nobody reads
		// again: a non-root's Bcast buffer is overwritten by the root's.
		{"wrapper Bcast on a non-root", 2, wBcastF, fault.TargetSendBuf, 70, true, true},
		// ... and an Allreduce wrapper's MAX ignores rank 0's second operand
		// bit; the flip dies with the temporary.
		{"wrapper send temporary", 0, wAllreduceI, fault.TargetSendBuf, 64, true, true},
		// A non-root's ReduceFloat64s receive buffer is never written and
		// never returned: the flip dies with the temporary.
		{"wrapper Reduce recv on a non-root", 2, wReduce, fault.TargetRecvBuf, 5, true, true},
	} {
		c := h.call(tc.rank, 0, tc.kind)
		forked, full := h.trial(t, tc.rank, c, tc.target, tc.bit)
		if forked.Reconverged != tc.cut {
			t.Errorf("%s: cut=%t, want %t", tc.name, forked.Reconverged, tc.cut)
		}
		if (full == h.golden) != tc.golden {
			t.Errorf("%s: full replay equals the golden run: %t, want %t (the case does not test what it names)\n%s", tc.name, full == h.golden, tc.golden, full)
		}
	}
	// Teardown is the supervisor's alone: however the unwinding ranks' parks
	// and exits interleave with its select, a cut run is never a deadlock
	// or a timeout, and is cut every time.
	must := h.call(3, 0, aAllreduce)
	for i := 0; i < 200; i++ {
		if forked, _ := h.trial(t, 3, must, fault.TargetRecvBuf, 5); !forked.Reconverged || forked.Deadlock || forked.TimedOut {
			t.Fatalf("repeat %d of the must-cut case: %+v", i, forked)
		}
	}
	// The peer-failure case really is one: some rank other than the
	// faulted one ends in an error.
	c := h.call(0, 0, aAllreduce)
	forked, _ := h.trial(t, 0, c, fault.TargetCount, 0)
	failedPeer := false
	for _, rr := range forked.Ranks[1:] {
		if _, ok := rr.Err.(mpi.MPIError); ok {
			failedPeer = true
		}
	}
	if !failedPeer {
		t.Errorf("count flip on rank 0's Allreduce failed no peer: %s", cutDigest(forked))
	}
}
