package mpi

import (
	"runtime"
	"testing"
	"time"
)

// A receiver that a delivery has woken, but that has not run yet, is a live
// rank however long it stays off-CPU: the sender un-counts it under w.mu
// before letting go, so the run cannot read as frozen until the receiver
// itself has run and parked again. The world is built by hand in exactly
// that state, so the test needs no load: ranks 1..n-1 parked, rank 0
// running. Rank 0 sends rank 1 a message it does not want and parks; only
// rank 1's own park, once it has looked and found nothing, may end the run.
func TestSuperviseWaitsForWokenReceiver(t *testing.T) {
	const n = 4
	sh := newShell(n)
	w := &World{size: n, ranks: sh.ranks, comms: []*commInfo{sh.world0}, mailbox: 8}
	for _, rk := range w.ranks {
		rk.world = w
	}
	for _, rk := range w.ranks[1:] {
		rk.parked = true
	}
	w.parked = n - 1
	sender, receiver := w.ranks[0], w.ranks[1]

	sender.post(sh.world0, CommWorld, 1, 7, []byte{1}, nil)
	if got := w.parkedCount(); got != n-2 || receiver.parked {
		t.Fatalf("after the delivery %d ranks are counted parked (receiver parked: %v); the woken receiver must be un-counted before it runs", got, receiver.parked)
	}

	died := make(chan any, 2)
	wait := func(rk *Rank, want matcher) {
		defer func() { died <- recover() }()
		rk.recvMatch(want)
	}
	go wait(sender, matcher{CommWorld, 1, 8})
	for w.parkedCount() != n-1 {
		runtime.Gosched()
	}
	if w.killed() {
		t.Fatalf("run killed while a woken receiver had yet to run: %s", w.why)
	}

	// The receiver runs, takes the wake, finds nothing it wants and parks
	// again: now the run is frozen, and that park is what ends it.
	select {
	case <-receiver.wake:
	case <-time.After(10 * time.Second):
		t.Fatal("the delivery did not wake its parked receiver")
	}
	go wait(receiver, matcher{CommWorld, 0, 9})
	for deadline := time.Now().Add(10 * time.Second); !w.killed(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("frozen run not ended by the park that froze it")
		}
	}
	if w.why != Deadlocked {
		t.Fatalf("kill reason = %q", w.why)
	}
	for i := 0; i < 2; i++ {
		if v := <-died; v != (Killed{Reason: Deadlocked.String()}) {
			t.Fatalf("parked rank ended with %v, want Killed by the deadlock verdict", v)
		}
	}
	if len(receiver.pending) != 1 || len(receiver.inbox) != 0 {
		t.Fatalf("receiver holds %d pending, %d unexamined; want the passed-over message pending", len(receiver.pending), len(receiver.inbox))
	}
}

// A rank sleeping off-CPU, not waiting on communication, is neither parked
// nor finished: the run it holds up completes cleanly however long it
// sleeps.
func TestSlowLiveRunCompletes(t *testing.T) {
	res := Run(RunOptions{NumRanks: 2, Network: net2(t, 2), Timeout: 10 * time.Second}, func(r *Rank) error {
		if r.ID() == 0 {
			// Stay off-CPU far longer than any deadlock is left standing.
			time.Sleep(60 * time.Millisecond)
			r.Send(CommWorld, 1, 5, []byte{1})
		} else {
			r.Recv(CommWorld, 0, 5)
		}
		return nil
	})
	if res.Deadlock {
		t.Fatal("slow-but-live run misclassified as deadlock")
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// Outcome precedence when a failure coincides with a frozen run: a failing
// rank's failure and finish are counted in one step under w.mu (World.exit),
// so a frozen state that counts it finished is always ended as a job abort.
// The failure is the run's outcome; Deadlock stays false whichever of the
// error and the last park comes first. The failure is an MPI error, not a
// segfault, which would end the job itself (TestSegFaultEndsTheJob).
func TestFailureDominatesQuiescenceVerdict(t *testing.T) {
	reps := 2000
	if testing.Short() {
		reps = 200
	}
	for i := 0; i < reps; i++ {
		res := Run(RunOptions{NumRanks: 4, Timeout: 30 * time.Second}, func(r *Rank) error {
			if r.ID() != 0 {
				r.Recv(CommWorld, 0, 7) // never sent
				return nil
			}
			if i%2 == 0 {
				// Fail only once every peer is parked, so the failure itself
				// completes the parked+finished == size sum.
				for r.world.parkedCount() != 3 {
					runtime.Gosched()
				}
			}
			panic(MPIError{Class: ErrCount, Op: "test", Detail: "test"})
		})
		if res.Deadlock || res.TimedOut {
			t.Fatalf("rep %d: Deadlock %v TimedOut %v, want a job abort", i, res.Deadlock, res.TimedOut)
		}
		if _, ok := res.FirstError().(MPIError); !ok {
			t.Fatalf("rep %d: FirstError = %v, want the MPIError", i, res.FirstError())
		}
		for _, rr := range res.Ranks[1:] {
			if k, ok := rr.Err.(Killed); !ok || k.Reason != "job abort: peers starved by a failed rank" {
				t.Fatalf("rep %d: rank %d error = %v, want Killed by the job abort", i, rr.Rank, rr.Err)
			}
		}
	}
}

// A segfault ends the job at once: a peer computing on, here in an endless
// Tick loop with no work budget to stop it, dies at its next Tick instead of
// holding the run until the wall-clock timeout.
func TestSegFaultEndsTheJob(t *testing.T) {
	res := Run(RunOptions{NumRanks: 4, WorkBudget: -1, Timeout: 30 * time.Second}, func(r *Rank) error {
		if r.ID() == 0 {
			panic(SegFault{Op: "test", Offset: 8, Length: 8, Bound: 8})
		}
		for {
			r.Tick(1)
		}
	})
	if res.TimedOut || res.Deadlock || res.Elapsed > 10*time.Second {
		t.Fatalf("TimedOut %v Deadlock %v after %v, want the segfault to end the run at once", res.TimedOut, res.Deadlock, res.Elapsed)
	}
	if _, ok := res.FirstError().(SegFault); !ok {
		t.Fatalf("FirstError = %v, want the SegFault", res.FirstError())
	}
	for _, rr := range res.Ranks[1:] {
		if rr.Err != (Killed{Reason: "job abort: a rank segfaulted"}) {
			t.Fatalf("rank %d error = %v, want Killed by the segfault", rr.Rank, rr.Err)
		}
	}
}

// booksApp drives every way a message can leave an inbox: Recv, Irecv with
// Wait and with Test, CommSplit and all thirteen collectives, on a faulty
// network. It ends by sending
// messages nobody receives, so the inboxes are left holding some.
func booksApp(r *Rank) error {
	me, n := r.ID(), r.NumRanks()
	next, prev := (me+1)%n, (me+n-1)%n
	r.Send(CommWorld, next, 1, []byte{1})
	r.Recv(CommWorld, prev, 1)
	req := r.Irecv(CommWorld, prev, 2)
	r.Isend(CommWorld, next, 2, []byte{2}).Wait()
	for done, _ := req.Test(); !done; done, _ = req.Test() {
		runtime.Gosched()
	}
	r.Send(CommWorld, next, 3, []byte{3})
	r.Irecv(CommWorld, AnySource, 3).Wait()
	r.Barrier(r.CommSplit(CommWorld, me%2, me))

	const k = 2
	one, all := r.NewFloat64Buffer(k), r.NewFloat64Buffer(k*n)
	out, outAll := r.NewFloat64Buffer(k), r.NewFloat64Buffer(k*n)
	counts, displs := make([]int32, n), make([]int32, n)
	for p := range counts {
		counts[p], displs[p] = k, int32(p*k)
	}
	r.Barrier(CommWorld)
	r.Bcast(one, k, Float64, 0, CommWorld)
	r.Reduce(one, out, k, Float64, OpSum, 1, CommWorld)
	r.Allreduce(one, out, k, Float64, OpSum, CommWorld)
	r.Scatter(all, out, k, Float64, 2, CommWorld)
	r.Gather(one, outAll, k, Float64, 3, CommWorld)
	r.Allgather(one, outAll, k, Float64, CommWorld)
	r.Alltoall(all, outAll, k, Float64, CommWorld)
	r.Alltoallv(all, counts, displs, outAll, counts, displs, Float64, CommWorld)
	r.ReduceScatter(all, out, counts, Float64, OpSum, CommWorld)
	r.Scan(one, out, k, Float64, OpSum, CommWorld)
	r.Scatterv(all, counts, displs, out, k, Float64, 0, CommWorld)
	r.Gatherv(one, k, outAll, counts, displs, Float64, 1, CommWorld)

	r.Send(CommWorld, next, 9, []byte{9})
	r.Send(CommWorld, prev, 9, []byte{9})
	return nil
}

// Every receive path leaves the run live until
// its ranks return: a path that took a message without waking or counting
// its rank right would freeze the run early or hang it.
func TestEveryReceivePathFinishesClean(t *testing.T) {
	for i := 0; i < 20; i++ {
		res := Run(RunOptions{NumRanks: 4, Network: net2(t, 4), Timeout: 30 * time.Second}, booksApp)
		if err := res.FirstError(); err != nil || res.Deadlock || res.TimedOut {
			t.Fatalf("run %d: %v (deadlock %v, timeout %v)", i, err, res.Deadlock, res.TimedOut)
		}
	}
}
