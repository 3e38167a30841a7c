package mpi

import (
	"math"
	"sync"
	"testing"
	"time"
)

func runN(t *testing.T, n int, fn func(r *Rank) error) RunResult {
	t.Helper()
	res := Run(RunOptions{NumRanks: n, Seed: 42, Timeout: 5 * time.Second}, fn)
	return res
}

func requireClean(t *testing.T, res RunResult) {
	t.Helper()
	if err := res.FirstError(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Deadlock || res.TimedOut {
		t.Fatalf("run deadlocked=%v timedout=%v", res.Deadlock, res.TimedOut)
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		res := runN(t, n, func(r *Rank) error {
			for i := 0; i < 5; i++ {
				r.Barrier(CommWorld)
			}
			return nil
		})
		requireClean(t, res)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		for root := 0; root < n; root++ {
			n, root := n, root
			res := runN(t, n, func(r *Rank) error {
				vals := make([]float64, 8)
				if r.ID() == root {
					for i := range vals {
						vals[i] = float64(i) + 100*float64(root)
					}
				}
				got := r.BcastFloat64s(vals, root, CommWorld)
				for i := range got {
					want := float64(i) + 100*float64(root)
					if got[i] != want {
						t.Errorf("n=%d root=%d rank=%d elem %d: got %v want %v", n, root, r.ID(), i, got[i], want)
					}
				}
				return nil
			})
			requireClean(t, res)
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 8, 16} {
		for _, root := range []int{0, n - 1} {
			n, root := n, root
			res := runN(t, n, func(r *Rank) error {
				vals := []float64{float64(r.ID()), 1}
				got := r.ReduceFloat64s(vals, OpSum, root, CommWorld)
				if r.ID() == root {
					wantSum := float64(n*(n-1)) / 2
					if got[0] != wantSum || got[1] != float64(n) {
						t.Errorf("n=%d root=%d: got %v", n, root, got)
					}
				} else if got != nil {
					t.Errorf("non-root got non-nil result")
				}
				return nil
			})
			requireClean(t, res)
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want func(n int) float64
	}{
		{OpSum, func(n int) float64 { return float64(n*(n-1)) / 2 }},
		{OpMax, func(n int) float64 { return float64(n - 1) }},
		{OpMin, func(n int) float64 { return 0 }},
	}
	for _, n := range []int{2, 4, 7, 8} {
		for _, c := range cases {
			n, c := n, c
			res := runN(t, n, func(r *Rank) error {
				got := r.AllreduceFloat64(float64(r.ID()), c.op, CommWorld)
				if got != c.want(n) {
					t.Errorf("n=%d op=%v: got %v want %v", n, c.op, got, c.want(n))
				}
				return nil
			})
			requireClean(t, res)
		}
	}
}

func TestAllreduceProdInt(t *testing.T) {
	res := runN(t, 4, func(r *Rank) error {
		got := r.AllreduceInt64(int64(r.ID())+1, OpProd, CommWorld)
		if got != 24 {
			t.Errorf("got %d want 24", got)
		}
		return nil
	})
	requireClean(t, res)
}

func TestAllreduceLogicalOps(t *testing.T) {
	res := runN(t, 4, func(r *Rank) error {
		flag := int64(0)
		if r.ID() == 2 {
			flag = 7 // nonzero = true
		}
		if got := r.AllreduceInt64(flag, OpLor, CommWorld); got != 1 {
			t.Errorf("LOR got %d want 1", got)
		}
		if got := r.AllreduceInt64(1, OpLand, CommWorld); got != 1 {
			t.Errorf("LAND got %d want 1", got)
		}
		if got := r.AllreduceInt64(flag, OpLand, CommWorld); got != 0 {
			t.Errorf("LAND with zero got %d want 0", got)
		}
		return nil
	})
	requireClean(t, res)
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		n := n
		res := runN(t, n, func(r *Rank) error {
			const per = 3
			var send *Buffer
			if r.ID() == 0 {
				vals := make([]float64, n*per)
				for i := range vals {
					vals[i] = float64(i)
				}
				send = FromFloat64s(vals)
			} else {
				send = NewFloat64Buffer(0)
			}
			recv := NewFloat64Buffer(per)
			r.Scatter(send, recv, per, Float64, 0, CommWorld)
			mine := recv.Float64s()
			for i, v := range mine {
				if v != float64(r.ID()*per+i) {
					t.Errorf("rank %d scatter elem %d: got %v", r.ID(), i, v)
				}
			}
			back := r.GatherFloat64s(mine, 0, CommWorld)
			if r.ID() == 0 {
				for i, v := range back {
					if v != float64(i) {
						t.Errorf("gather elem %d: got %v", i, v)
					}
				}
			}
			return nil
		})
		requireClean(t, res)
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		n := n
		res := runN(t, n, func(r *Rank) error {
			got := r.AllgatherInt64s(int64(r.ID()*10), CommWorld)
			for i, v := range got {
				if v != int64(i*10) {
					t.Errorf("n=%d rank=%d: got[%d]=%d", n, r.ID(), i, v)
				}
			}
			return nil
		})
		requireClean(t, res)
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		n := n
		res := runN(t, n, func(r *Rank) error {
			// send[p] = 100*me + p; after alltoall recv[p] = 100*p + me
			vals := make([]int64, n)
			for p := range vals {
				vals[p] = int64(100*r.ID() + p)
			}
			send := FromInt64s(vals)
			recv := NewInt64Buffer(n)
			r.Alltoall(send, recv, 1, Int64, CommWorld)
			got := recv.Int64s()
			for p, v := range got {
				if v != int64(100*p+r.ID()) {
					t.Errorf("n=%d rank=%d: recv[%d]=%d", n, r.ID(), p, v)
				}
			}
			return nil
		})
		requireClean(t, res)
	}
}

func TestAlltoallv(t *testing.T) {
	// rank i sends i+1 copies of value i*100+p to each peer p? Keep it
	// simpler: rank i sends (p+1) elements to peer p, valued 1000*i+p.
	const n = 4
	res := runN(t, n, func(r *Rank) error {
		me := r.ID()
		sendCounts := make([]int32, n)
		sendDispls := make([]int32, n)
		total := 0
		for p := 0; p < n; p++ {
			sendCounts[p] = int32(p + 1)
			sendDispls[p] = int32(total)
			total += p + 1
		}
		vals := make([]int64, total)
		for p := 0; p < n; p++ {
			for k := 0; k < p+1; k++ {
				vals[int(sendDispls[p])+k] = int64(1000*me + p)
			}
		}
		send := FromInt64s(vals)

		recvCounts := make([]int32, n)
		recvDispls := make([]int32, n)
		rtotal := 0
		for p := 0; p < n; p++ {
			recvCounts[p] = int32(me + 1) // peer p sends me+1 elements to me
			recvDispls[p] = int32(rtotal)
			rtotal += me + 1
		}
		recv := NewInt64Buffer(rtotal)
		r.Alltoallv(send, sendCounts, sendDispls, recv, recvCounts, recvDispls, Int64, CommWorld)
		got := recv.Int64s()
		for p := 0; p < n; p++ {
			for k := 0; k < me+1; k++ {
				want := int64(1000*p + me)
				if got[int(recvDispls[p])+k] != want {
					t.Errorf("rank %d from %d elem %d: got %d want %d", me, p, k, got[int(recvDispls[p])+k], want)
				}
			}
		}
		return nil
	})
	requireClean(t, res)
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	res := runN(t, n, func(r *Rank) error {
		counts := []int32{1, 2, 1, 2}
		total := 6
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = float64(i + r.ID())
		}
		send := FromFloat64s(vals)
		recv := NewFloat64Buffer(int(counts[r.ID()]))
		r.ReduceScatter(send, recv, counts, Float64, OpSum, CommWorld)
		got := recv.Float64s()
		displ := 0
		for p := 0; p < r.ID(); p++ {
			displ += int(counts[p])
		}
		for k, v := range got {
			// sum over ranks of (i + rank) at position i = displ+k
			i := displ + k
			want := float64(n*i) + float64(n*(n-1))/2
			if v != want {
				t.Errorf("rank %d seg elem %d: got %v want %v", r.ID(), k, v, want)
			}
		}
		return nil
	})
	requireClean(t, res)
}

func TestScan(t *testing.T) {
	const n = 6
	res := runN(t, n, func(r *Rank) error {
		send := FromFloat64s([]float64{float64(r.ID() + 1)})
		recv := NewFloat64Buffer(1)
		r.Scan(send, recv, 1, Float64, OpSum, CommWorld)
		want := float64((r.ID() + 1) * (r.ID() + 2) / 2)
		if got := recv.Float64(0); got != want {
			t.Errorf("rank %d: got %v want %v", r.ID(), got, want)
		}
		return nil
	})
	requireClean(t, res)
}

func TestSendRecvUserMessages(t *testing.T) {
	res := runN(t, 2, func(r *Rank) error {
		if r.ID() == 0 {
			r.SendFloat64s(CommWorld, 1, 7, []float64{3.14, 2.71})
			got := r.RecvFloat64s(CommWorld, 1, 8)
			if got[0] != 1.61 {
				t.Errorf("got %v", got)
			}
		} else {
			got := r.RecvFloat64s(CommWorld, 0, 7)
			if got[0] != 3.14 || got[1] != 2.71 {
				t.Errorf("got %v", got)
			}
			r.SendFloat64s(CommWorld, 0, 8, []float64{1.61})
		}
		return nil
	})
	requireClean(t, res)
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	res := runN(t, 3, func(r *Rank) error {
		if r.ID() == 0 {
			seen := map[byte]bool{}
			for i := 0; i < 2; i++ {
				data := r.Recv(CommWorld, AnySource, AnyTag)
				seen[data[0]] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("missing senders: %v", seen)
			}
		} else {
			r.Send(CommWorld, 0, r.ID(), []byte{byte(r.ID())})
		}
		return nil
	})
	requireClean(t, res)
}

func TestDeadlockDetected(t *testing.T) {
	start := time.Now()
	res := Run(RunOptions{NumRanks: 2, Timeout: 30 * time.Second}, func(r *Rank) error {
		// Both ranks receive a message nobody sends.
		r.Recv(CommWorld, 1-r.ID(), 5)
		return nil
	})
	if !res.Deadlock {
		t.Fatalf("deadlock not detected: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlock detection took %v; the last park should end the run at once", elapsed)
	}
	for _, rr := range res.Ranks {
		if _, ok := rr.Err.(Killed); !ok {
			t.Errorf("rank %d error = %T, want Killed", rr.Rank, rr.Err)
		}
	}
}

func TestMismatchedRootDeadlocks(t *testing.T) {
	res := Run(RunOptions{NumRanks: 4, Timeout: 30 * time.Second}, func(r *Rank) error {
		buf := NewFloat64Buffer(4)
		root := 0
		if r.ID() == 2 {
			root = 1 // corrupted root on one rank
		}
		r.Bcast(buf, 4, Float64, root, CommWorld)
		r.Barrier(CommWorld)
		return nil
	})
	if res.FirstError() == nil && !res.Deadlock {
		t.Fatalf("mismatched root should deadlock or error; got %+v", res)
	}
}

func TestNegativeCountIsMPIErr(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		buf := NewFloat64Buffer(4)
		r.Bcast(buf, -3, Float64, 0, CommWorld)
	})
	wantClass(t, res, ErrCount)
}

func TestNullDatatypeIsMPIErr(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		send := NewFloat64Buffer(4)
		recv := NewFloat64Buffer(4)
		r.Allreduce(send, recv, 4, DatatypeNull, OpSum, CommWorld)
	})
	wantClass(t, res, ErrType)
}

func TestNullOpIsMPIErr(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		send := NewFloat64Buffer(4)
		recv := NewFloat64Buffer(4)
		r.Allreduce(send, recv, 4, Float64, OpNull, CommWorld)
	})
	wantClass(t, res, ErrOp)
}

func TestCorruptDatatypeHandleSegfaults(t *testing.T) {
	// A non-null corrupted handle is dereferenced like a pointer and
	// crashes, matching the paper's observation that datatype faults often
	// produce SEG_FAULT rather than clean MPI errors.
	res := runErr(t, func(r *Rank) {
		send := NewFloat64Buffer(4)
		recv := NewFloat64Buffer(4)
		r.Allreduce(send, recv, 4, Datatype(1<<16), OpSum, CommWorld)
	})
	if _, ok := res.FirstError().(SegFault); !ok {
		t.Fatalf("want SegFault, got %v", res.FirstError())
	}
}

func TestCorruptOpHandleSegfaults(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		send := NewFloat64Buffer(4)
		recv := NewFloat64Buffer(4)
		r.Allreduce(send, recv, 4, Float64, Op(1<<20), CommWorld)
	})
	if _, ok := res.FirstError().(SegFault); !ok {
		t.Fatalf("want SegFault, got %v", res.FirstError())
	}
}

func TestValidAlternateDatatypeSilentlyConfusesSizes(t *testing.T) {
	// Flipping MPI_DOUBLE to MPI_FLOAT halves the element size: the
	// collective moves fewer bytes and the result is silently wrong —
	// no crash, no MPI error.
	res := runErr(t, func(r *Rank) {
		send := FromFloat64s([]float64{1, 2, 3, 4})
		recv := NewFloat64Buffer(4)
		dt := Float64
		if r.ID() == 0 {
			dt = Float32
		}
		r.Allreduce(send, recv, 4, dt, OpSum, CommWorld)
	})
	// Rank 0 sends 16 bytes where peers expect 32: peers read short and
	// crash in the combine, or truncation errors surface — either way the
	// run must not hang.
	if res.Deadlock || res.TimedOut {
		t.Fatalf("size confusion should not hang: %+v", res)
	}
}

func TestInvalidRootIsMPIErr(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		buf := NewFloat64Buffer(4)
		r.Bcast(buf, 4, Float64, 99, CommWorld)
	})
	wantClass(t, res, ErrRoot)
}

func TestOversizedCountSegfaults(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		send := NewFloat64Buffer(4)
		recv := NewFloat64Buffer(4)
		r.Allreduce(send, recv, 1<<20, Float64, OpSum, CommWorld)
	})
	if _, ok := res.FirstError().(SegFault); !ok {
		t.Fatalf("want SegFault, got %v", res.FirstError())
	}
}

func TestCorruptCommSegfaults(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		r.Barrier(Comm(1 << 20))
	})
	if _, ok := res.FirstError().(SegFault); !ok {
		t.Fatalf("want SegFault, got %v", res.FirstError())
	}
}

func TestAppAbort(t *testing.T) {
	res := runErr(t, func(r *Rank) {
		if r.ID() == 1 {
			r.Abort("lost atoms")
		}
		r.Barrier(CommWorld)
	})
	if _, ok := res.FirstError().(AppError); !ok {
		t.Fatalf("want AppError, got %v", res.FirstError())
	}
}

func runErr(t *testing.T, fn func(r *Rank)) RunResult {
	t.Helper()
	return Run(RunOptions{NumRanks: 4, Seed: 1, Timeout: 30 * time.Second}, func(r *Rank) error {
		fn(r)
		return nil
	})
}

func wantClass(t *testing.T, res RunResult, class ErrClass) {
	t.Helper()
	err := res.FirstError()
	me, ok := err.(MPIError)
	if !ok {
		t.Fatalf("want MPIError(%v), got %v", class, err)
	}
	if me.Class != class {
		t.Fatalf("want class %v, got %v", class, me.Class)
	}
}

func TestCommSplitRowsAndColumns(t *testing.T) {
	const n = 8
	res := runN(t, n, func(r *Rank) error {
		row := r.CommSplit(CommWorld, r.ID()/4, r.ID())
		if got := r.Size(row); got != 4 {
			t.Errorf("row size = %d", got)
		}
		sum := r.AllreduceInt64(int64(r.ID()), OpSum, row)
		want := int64(0 + 1 + 2 + 3)
		if r.ID() >= 4 {
			want = 4 + 5 + 6 + 7
		}
		if sum != want {
			t.Errorf("rank %d row sum = %d want %d", r.ID(), sum, want)
		}
		col := r.CommSplit(CommWorld, r.ID()%4, r.ID())
		if got := r.Size(col); got != 2 {
			t.Errorf("col size = %d", got)
		}
		csum := r.AllreduceInt64(int64(r.ID()), OpSum, col)
		if csum != int64(r.ID()%4+(r.ID()%4+4)) {
			t.Errorf("rank %d col sum = %d", r.ID(), csum)
		}
		return nil
	})
	requireClean(t, res)
}

func TestCommDup(t *testing.T) {
	res := runN(t, 4, func(r *Rank) error {
		dup := r.CommDup(CommWorld)
		if dup == CommWorld {
			t.Errorf("dup returned world handle")
		}
		if r.Size(dup) != 4 || r.CommRank(dup) != r.ID() {
			t.Errorf("dup wrong shape")
		}
		sum := r.AllreduceInt64(1, OpSum, dup)
		if sum != 4 {
			t.Errorf("dup allreduce = %d", sum)
		}
		return nil
	})
	requireClean(t, res)
}

func TestResultsReported(t *testing.T) {
	res := runN(t, 2, func(r *Rank) error {
		r.ReportResult(float64(r.ID()), math.Pi)
		return nil
	})
	requireClean(t, res)
	for i, rr := range res.Ranks {
		if len(rr.Values) != 2 || rr.Values[0] != float64(i) {
			t.Errorf("rank %d values = %v", i, rr.Values)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	draw := func() []float64 {
		var vals [4]float64
		res := Run(RunOptions{NumRanks: 4, Seed: 99, Timeout: 5 * time.Second}, func(r *Rank) error {
			vals[r.ID()] = r.Rand().Float64()
			return nil
		})
		requireClean(t, res)
		return vals[:]
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d rand differs across identical runs", i)
		}
	}
	if a[0] == a[1] {
		t.Fatalf("ranks share a random stream")
	}
}

func TestHookSeesCalls(t *testing.T) {
	h := &countingHook{}
	res := Run(RunOptions{NumRanks: 2, Seed: 1, Hook: h, Timeout: 5 * time.Second}, func(r *Rank) error {
		r.SetPhase(PhaseCompute)
		r.AllreduceFloat64(1, OpSum, CommWorld)
		r.ErrCheck(func() {
			r.AllreduceFloat64(1, OpMax, CommWorld)
		})
		return nil
	})
	requireClean(t, res)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.before != 4 || h.after != 4 {
		t.Fatalf("hook counts before=%d after=%d, want 4/4", h.before, h.after)
	}
	if h.errHandling != 2 {
		t.Fatalf("errHandling-annotated calls = %d, want 2", h.errHandling)
	}
	if h.phases[PhaseCompute] != 4 {
		t.Fatalf("phase annotations wrong: %v", h.phases)
	}
	if h.invocations[0] != 2 || h.invocations[1] != 2 {
		t.Fatalf("invocation indices wrong: %v", h.invocations)
	}
}

type countingHook struct {
	NopHook
	mu          sync.Mutex
	before      int
	after       int
	errHandling int
	phases      map[Phase]int
	invocations map[int]int
}

func (h *countingHook) BeforeCollective(c *CollectiveCall) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.phases == nil {
		h.phases = map[Phase]int{}
		h.invocations = map[int]int{}
	}
	h.before++
	if c.ErrHandling {
		h.errHandling++
	}
	h.phases[c.Phase]++
	h.invocations[c.Invocation]++
}

func (h *countingHook) AfterCollective(c *CollectiveCall) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.after++
}
