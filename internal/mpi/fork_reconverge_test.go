package mpi_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The named cases of the reconvergence cut (fork.go, part 3) and of the cut
// at a later checkpoint (checkpoint.go, part 6), each run against its
// reference through equivalent (equivalence_test.go).

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

// cutState is cutTestApp's checkpoint: the iteration to run, the value it
// reports and the count vectors it reuses.
type cutState struct {
	iter           int
	acc            float64
	sc, sd, rc, rd []int32
}

func (s *cutState) Clone() mpi.State {
	c := *s
	c.sc, c.sd, c.rc, c.rd = slices.Clone(s.sc), slices.Clone(s.sd), slices.Clone(s.rc), slices.Clone(s.rd)
	return &c
}

func (s *cutState) Equal(o mpi.State) bool {
	t := o.(*cutState)
	return s.iter == t.iter && mpi.EqualBits([]float64{s.acc}, []float64{t.acc}) &&
		slices.Equal(s.sc, t.sc) && slices.Equal(s.sd, t.sd) && slices.Equal(s.rc, t.rc) && slices.Equal(s.rd, t.rd)
}

// cutTestApp calls all thirteen collectives, through the wrappers and raw on
// buffers and count vectors it owns and reuses, with point-to-point traffic
// crossing them. After every raw call it folds everything the call could
// have touched — both whole buffers, every vector — into the value it
// reports, so a flip that outlives a call anywhere in application memory
// changes the run's result. It checkpoints at the top of every iteration
// and before its last Barrier, so a run may also end at a checkpoint.
func cutTestApp(r *mpi.Rank) error {
	me, n := r.ID(), r.NumRanks()
	const W = mpi.CommWorld
	s, resumed := r.Resume().(*cutState)
	if !resumed {
		r.SetPhase(mpi.PhaseCompute)
		s = &cutState{acc: float64(me + 1)}
		twos, displs := make([]int32, n), make([]int32, n)
		for p := range twos {
			twos[p], displs[p] = 2, int32(2*p)
		}
		s.sc, s.sd = slices.Clone(twos), slices.Clone(displs)
		s.rc, s.rd = slices.Clone(twos), slices.Clone(displs)
	}
	fold := func(b *mpi.Buffer) {
		for i, x := range b.Bytes() {
			s.acc += float64(x) * float64(i%7+1)
		}
	}
	foldv := func(vs ...[]int32) {
		for _, v := range vs {
			for i, x := range v {
				s.acc += float64(x) * float64(i+1)
			}
		}
	}
	// One element longer than any call needs: every receive buffer has
	// bytes outside the result span, every send buffer bytes no call reads.
	send, recv := r.NewFloat64Buffer(2*n+1), r.NewFloat64Buffer(2*n+1)
	stage := func() {
		// Ordered by rank (rank 0 never holds a maximum), coupled to acc.
		for i := 0; i < send.Len()/8; i++ {
			send.SetFloat64(i, float64(10*(me+1)+i)+math.Mod(math.Abs(s.acc), 1))
			recv.SetFloat64(i, -7.25)
		}
	}
	after := func(vs ...[]int32) {
		fold(send)
		fold(recv)
		foldv(vs...)
	}
	sc, sd, rc, rd := s.sc, s.sd, s.rc, s.rd
	right, left := (me+1)%n, (me-1+n)%n
	halo := make([]float64, 2)

	for ; s.iter < cutTestIters; s.iter++ {
		r.Checkpoint(s)
		r.Tick(100)
		root := s.iter % n
		small := math.Mod(math.Abs(s.acc), 3)

		for _, v := range r.AllreduceFloat64s([]float64{small, float64(me)}, mpi.OpSum, W) {
			s.acc += v
		}
		s.acc += float64(r.AllreduceInt64s([]int64{int64(me), 5}, mpi.OpMax, W)[0])
		for _, v := range r.ReduceFloat64s([]float64{small, 1}, mpi.OpSum, root, W) {
			s.acc += v
		}
		s.acc += r.BcastFloat64s([]float64{small, float64(me)}, root, W)[1]
		s.acc += float64(r.BcastInt64s([]int64{int64(me) + 3}, root, W)[0])
		for _, v := range r.AllgatherInt64s(int64(me)*3, W) {
			s.acc += float64(v)
		}
		for _, v := range r.AllgatherFloat64s([]float64{small}, W) {
			s.acc += v
		}
		for _, v := range r.GatherFloat64s([]float64{small, 2}, root, W) {
			s.acc += v
		}

		// A ring shift whose receive follows the barrier: a fault at the
		// barrier makes it a prestocked message.
		r.SendFloat64s(W, right, 7, []float64{s.acc, small})
		r.Barrier(W)
		for _, v := range r.RecvFloat64sInto(W, left, 7, halo) {
			s.acc += math.Mod(v, 5)
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
	r.Checkpoint(s)
	r.Barrier(W)
	r.ReportResult(s.acc)
	return nil
}

// cutHarness is one recorded configuration of an application.
type cutHarness struct {
	opts   mpi.RunOptions
	fn     func(*mpi.Rank) error
	golden mpi.RunResult
	calls  [][]cutCall
}

func newHarness(t *testing.T, opts mpi.RunOptions, fn func(*mpi.Rank) error) *cutHarness {
	t.Helper()
	golden, calls := record(t, opts, fn)
	return &cutHarness{opts: opts, fn: fn, golden: golden, calls: calls}
}

func newCutHarness(t *testing.T) *cutHarness {
	t.Helper()
	h := newHarness(t, mpi.RunOptions{NumRanks: 4, Seed: 3}, cutTestApp)
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

// trial runs one fault forked from its injection prefix, where the run may
// be cut, and as the reference, where it cannot, and fails the test unless
// the two are equivalent.
func (h *cutHarness) trial(t *testing.T, rank int, c cutCall, target fault.Target, bit int) (forked, ref mpi.RunResult) {
	t.Helper()
	forked, ref, diff := h.compare(t, rank, c, target, bit)
	if diff != "" {
		t.Fatal(diff)
	}
	return forked, ref
}

// compare is trial without the verdict: diff is what equivalent says.
func (h *cutHarness) compare(t *testing.T, rank int, c cutCall, target fault.Target, bit int) (forked, ref mpi.RunResult, diff string) {
	t.Helper()
	f := fault.Fault{Rank: rank, Site: c.site, Invocation: c.inv, Target: target, Bit: bit}
	fk := h.golden.Trace.Fork(rank, c.site, c.inv)
	if fk == nil {
		t.Fatalf("no fork for %v", f)
	}
	forked, ref = runFault(t, h.opts, fk, f, h.fn).RunResult, runFault(t, reference(h.opts), nil, f, h.fn).RunResult
	if d := equivalent(h.golden, ref, forked, rank); d != "" {
		diff = fmt.Sprintf("%v (%v): %s", f, c.typ, d)
	}
	return forked, ref, diff
}

// isGolden reports whether res ended by itself with the golden run's ranks,
// bit for bit.
func (h *cutHarness) isGolden(res mpi.RunResult) bool {
	return res.Provenance == mpi.NotKilled && ranksDiff(res, h.golden) == ""
}

// TestForkReconvergenceNamedCases pins the exclusion list: faults whose
// result spans are golden on every rank and which must still run to the end,
// because the flip outlives the call in application memory or a peer never
// completes it — and one that must be cut.
func TestForkReconvergenceNamedCases(t *testing.T) {
	h := newCutHarness(t)
	const root = 0 // iteration 0's root
	for _, tc := range []struct {
		name   string
		rank   int
		kind   int
		target fault.Target
		bit    int
		cut    bool
		golden bool // the reference run reports the golden run's values
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
		forked, ref := h.trial(t, tc.rank, c, tc.target, tc.bit)
		if forked.Reconverged != tc.cut || tc.cut && forked.Provenance != mpi.Reconverged {
			t.Errorf("%s: %v, want cut=%t at the call", tc.name, forked.Provenance, tc.cut)
		}
		if h.isGolden(ref) != tc.golden {
			t.Errorf("%s: the reference run is the golden run: %t, want %t (the case does not test what it names)\n%v", tc.name, !tc.golden, tc.golden, ref.Ranks)
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
		t.Errorf("count flip on rank 0's Allreduce failed no peer: %v", forked.Ranks)
	}
}

// The cut at a checkpoint (checkpoint.go, part 6).
// maskApp's one Allreduce per iteration sums operands whose golden total is
// a whole number, and the application keeps only the rounded sum: a flip of
// a low operand bit perturbs every rank's result, so the call cut refuses
// it, and is rounded away before the next checkpoint. Each variant adds one
// way the perturbation can survive the rounding that only the checkpoint
// cut's rules see.
const (
	maskBase     = iota
	maskNegZero  // z becomes -0 for a sum above its rounding, where the golden z is +0
	maskNaN      // z is a NaN whose payload holds the sum's low bits
	maskWork     // a sum off its rounding costs one work unit more
	maskCrossed  // the unrounded sum goes to a neighbour across the next checkpoint
	maskStray    // a sum off its rounding is also sent early, before the next checkpoint
	maskRelay    // as maskStray, but received past the checkpoint before the last rank reaches it
	maskVariants // count
)

const maskIters = 3

// maskState is maskApp's checkpoint. sloppy makes Equal leave z out: the
// negative control's broken equality.
type maskState struct {
	it     int
	acc, z float64
	sloppy bool
}

func (s *maskState) Clone() mpi.State { c := *s; return &c }

func (s *maskState) Equal(o mpi.State) bool {
	t := o.(*maskState)
	return s.it == t.it && s.sloppy == t.sloppy && mpi.EqualBits([]float64{s.acc}, []float64{t.acc}) &&
		(s.sloppy || mpi.EqualBits([]float64{s.z}, []float64{t.z}))
}

// maskApp is the application of one variant. books, when not nil, receives
// every rank's books right after its checkpoint of iteration 1. It is never
// inlined, so that every run executes the one closure and a call site
// recorded in one run addresses the same call in another.
//
//go:noinline
func maskApp(variant int, sloppy bool, books []mpi.Books) func(*mpi.Rank) error {
	return func(r *mpi.Rank) error {
		me, n := r.ID(), r.NumRanks()
		right, left := (me+1)%n, (me-1+n)%n
		const W = mpi.CommWorld
		s, resumed := r.Resume().(*maskState)
		if !resumed {
			r.SetPhase(mpi.PhaseCompute)
			s = &maskState{acc: 1, sloppy: sloppy}
			if variant == maskNaN {
				s.z = math.Float64frombits(0x7ff8000000000001)
			}
		}
		for ; s.it < maskIters; s.it++ {
			r.Checkpoint(s)
			if books != nil && s.it == 1 {
				books[me] = mpi.BooksOf(r)
			}
			r.Tick(100)
			switch {
			case variant == maskCrossed && s.it > 0:
				y := r.RecvFloat64sInto(W, left, 5, nil)[0]
				s.z += y - math.Round(y)
			case variant == maskStray && s.it > 0:
				r.SendFloat64s(W, right, 6, []float64{s.acc})
			case variant == maskRelay && s.it > 0:
				// A chain: rank 0 sends its rounded sum to rank 1, and each
				// rank releases the next one into this iteration's
				// checkpoint only once it has done its part here.
				switch me {
				case 0:
					r.SendFloat64s(W, 1, 6, []float64{s.acc})
				case 1:
					s.z += r.RecvFloat64sInto(W, 0, 6, nil)[0] - s.acc
				}
				if me < n-1 {
					r.SendFloat64s(W, me+1, 8, nil)
				}
			}
			x := r.AllreduceFloat64s([]float64{s.acc + 0.5}, mpi.OpSum, W)[0]
			off := x != math.Round(x)
			switch variant {
			case maskNegZero:
				s.z *= math.Copysign(1, math.Round(x)-x)
			case maskNaN:
				if off {
					s.z = math.Float64frombits(0x7ff8000000000000 | math.Float64bits(x)&0xffff)
				}
			case maskWork:
				if off {
					r.Tick(1)
				}
			case maskCrossed:
				if s.it < maskIters-1 {
					r.SendFloat64s(W, right, 5, []float64{x})
				}
			case maskStray:
				if s.it > 0 {
					// Golden: the neighbour's rounded sum, sent after this
					// iteration's checkpoint, equal to this rank's.
					s.z += r.RecvFloat64sInto(W, left, 6, nil)[0] - s.acc
				}
				if off {
					r.SendFloat64s(W, right, 6, []float64{x})
				}
			case maskRelay:
				if me == 0 && off {
					r.SendFloat64s(W, 1, 6, []float64{x})
				}
				if me > 0 && s.it < maskIters-1 {
					r.RecvFloat64sInto(W, me-1, 8, nil)
				}
			}
			s.acc = math.Round(x)
		}
		r.Checkpoint(s)
		r.ReportResult(s.acc, 1/s.z, float64(math.Float64bits(s.z)&0xffff))
		return nil
	}
}

// maskOpts is variant's run options at 4 ranks. maskWork's runs get a work
// budget the golden run exactly exhausts.
func maskOpts(variant int) mpi.RunOptions {
	opts := mpi.RunOptions{NumRanks: 4, Seed: 2}
	if variant == maskWork {
		books := runBooked(opts, maskApp(variant, false, nil)).books
		opts.WorkBudget = books[0].Work
	}
	return opts
}

func newMaskHarness(t *testing.T, variant int, sloppy bool) *cutHarness {
	t.Helper()
	return newHarness(t, maskOpts(variant), maskApp(variant, sloppy, nil))
}

// maskBit is a low mantissa bit of maskApp's float64 operand: the flip its
// rounding masks. maskHigh is an exponent bit, which nothing masks.
const (
	maskBit  = 5
	maskHigh = 61
)

// TestCheckpointCutNamedCases pins the rules of the cut at a checkpoint:
// one run that must be cut there, with only the invocation counts
// differing from the golden run's books, and runs the golden run would
// take for masked at the next checkpoint but whose reference runs are not
// golden, each refused by one rule.
func TestCheckpointCutNamedCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant int
		iter    int // the faulted Allreduce's iteration
		bit     int
		cut     bool
	}{
		{"state and bookkeeping golden, invocation counts not", maskBase, 0, maskBit, true},
		{"-0 against +0", maskNegZero, 0, maskBit, false},
		{"another NaN payload", maskNaN, 0, maskBit, false},
		{"work", maskWork, 0, maskBit, false},
		{"a message crosses the checkpoint", maskCrossed, 0, maskBit, false},
		{"a stray message sent before the checkpoint is queued", maskStray, 1, maskBit, false},
		{"a stray message sent before the checkpoint is received past it", maskRelay, 0, maskBit, false},
		{"a resumed rank's own checkpoint, before the fault", maskBase, 1, maskHigh, false},
	} {
		h := newMaskHarness(t, tc.variant, false)
		c := h.calls[0][tc.iter]
		forked, ref := h.trial(t, 0, c, fault.TargetSendBuf, tc.bit)
		if got := forked.Provenance == mpi.ReconvergedAtCheckpoint; got != tc.cut || forked.Provenance == mpi.Reconverged {
			t.Errorf("%s: %v, want a cut at a checkpoint: %t", tc.name, forked.Provenance, tc.cut)
		}
		if h.isGolden(ref) != tc.cut {
			t.Errorf("%s: the reference run is the golden run: %t (the case does not test what it names)\n%v", tc.name, !tc.cut, ref.Ranks)
		}
		// Every checkpoint is eligible but those a recorded message crosses:
		// the ones at the top of the iterations that receive.
		want := []int{0, 1, 2, 3}
		if tc.variant == maskCrossed {
			want = []int{0, 3}
		}
		if got := h.golden.Trace.Eligible(); !slices.Equal(got, want) {
			t.Errorf("%s: eligible checkpoints %v, want %v", tc.name, got, want)
		}
		if tc.iter > 0 {
			if fk := h.golden.Trace.Fork(0, c.site, c.inv); fk.Resumes() != 4 {
				t.Errorf("%s: %d ranks resume, want every rank resumed at the faulted iteration's checkpoint", tc.name, fk.Resumes())
			}
		}
	}

	// The cut run's books at the checkpoint it ended at, against the
	// golden run's: only the invocation counts differ.
	h := newMaskHarness(t, maskBase, false)
	c := h.calls[0][0]
	golden, forked := make([]mpi.Books, 4), make([]mpi.Books, 4)
	mpi.Run(h.opts, maskApp(maskBase, false, golden))
	o := h.opts
	o.Hook = fault.NewInjector(nil, fault.Fault{Rank: 0, Site: c.site, Invocation: c.inv, Target: fault.TargetSendBuf, Bit: maskBit})
	o.Fork = h.golden.Trace.Fork(0, c.site, c.inv)
	if res := mpi.Run(o, maskApp(maskBase, false, forked)); res.Provenance != mpi.ReconvergedAtCheckpoint || res.FlagsDisagree() != "" {
		t.Fatalf("the must-cut fault ended %v (%s)", res.Provenance, res.FlagsDisagree())
	}
	countsDiffer := false
	for i := range golden {
		g, f := golden[i], forked[i]
		if g.Work != f.Work || g.Phase != f.Phase || g.ErrHandling != f.ErrHandling {
			t.Errorf("rank %d books %+v at the cut, golden %+v", i, f, g)
		}
		countsDiffer = countsDiffer || fmt.Sprint(g.Invents) != fmt.Sprint(f.Invents)
	}
	if !countsDiffer {
		t.Error("no rank's invocation counts differ from the golden run's: the case does not show they are left out")
	}
}

// ckSweep runs every fault of a fixed set — every target of every call at
// sampleBits — of h forked and as the reference, and returns where the two
// were not equivalent and how many forked runs were cut at a checkpoint.
func ckSweep(t *testing.T, h *cutHarness) (diffs []string, atCk int) {
	t.Helper()
	for rank, calls := range h.calls {
		for _, c := range calls {
			for _, target := range fault.TargetsFor(c.typ) {
				for _, bit := range sampleBits(c.widths.Of(target)) {
					forked, _, diff := h.compare(t, rank, c, target, bit)
					if forked.Provenance == mpi.ReconvergedAtCheckpoint {
						atCk++
					}
					if diff != "" {
						diffs = append(diffs, diff)
					}
				}
			}
		}
	}
	return diffs, atCk
}

// TestCheckpointCutNegativeControl: every variant of maskApp is
// equivalent to its reference, some runs of the base one cut at a
// checkpoint, and equivalent catches an Equal that leaves out the field a
// -0 lives in.
func TestCheckpointCutNegativeControl(t *testing.T) {
	for v := range maskVariants {
		diffs, atCk := ckSweep(t, newMaskHarness(t, v, false))
		for _, d := range diffs {
			t.Errorf("variant %d: %s", v, d)
		}
		if v == maskBase && atCk == 0 {
			t.Errorf("variant %d: no run was cut at a checkpoint; the sweep compared nothing the cut produced", v)
		}
	}
	if diffs, _ := ckSweep(t, newMaskHarness(t, maskNegZero, true)); len(diffs) == 0 {
		t.Fatal("equivalent did not tell an Equal that leaves a field out from a whole one")
	}
}
