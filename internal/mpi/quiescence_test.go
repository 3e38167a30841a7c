package mpi

import (
	"runtime"
	"testing"
	"time"
)

// A receiver that a channel hand-off has already woken, but that has not run
// yet, still counts as blocked and its inbox is already empty: on a loaded
// host that state can last for many milliseconds. It is a live run, and the
// supervisor must wait for it however long it lasts — only the books
// (delivered == absorbed + queued) tell it from a deadlock. The world is
// built by hand in exactly that state, so the test needs no load; the 150 ms
// it watches for is several times what a wall-clock stuck window of 48
// samples of a 250 µs ticker lasts (12 ms nominally, ~45 ms where such a
// ticker only fires at 1 kHz), which is what would kill it.
func TestSuperviseWaitsForWokenReceiver(t *testing.T) {
	const n = 4
	w := &World{
		size:    n,
		ranks:   newShell(n, 8).ranks,
		done:    make(chan struct{}),
		quiesce: make(chan struct{}, 1),
	}
	for _, rk := range w.ranks {
		rk.blockKind.Store(blockRecv)
	}
	w.blocked.Store(n)
	w.delivered.Store(1) // handed to a receiver that has yet to run

	allDone := make(chan struct{})
	verdict := make(chan [3]bool, 1)
	go func() {
		deadlock, timedOut, cancelled := w.supervise(allDone, nil, 30*time.Second)
		verdict <- [3]bool{deadlock, timedOut, cancelled}
	}()

	w.notifyQuiesce() // the sender's own park: a hint exactNow must refuse
	select {
	case <-w.done:
		t.Fatalf("supervisor killed a live run: %v", w.killWhy.Load())
	case <-time.After(150 * time.Millisecond):
	}

	// The receiver runs, finds nothing to do with the message and parks
	// again: now the run is frozen, and its hint is what reaps it.
	w.absorbed.Add(1)
	start := time.Now()
	w.notifyQuiesce()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("frozen run not reaped after its quiescence hint")
	}
	t.Logf("reaped %v after the hint", time.Since(start))
	if why := w.killWhy.Load().(string); why != "deadlock: all surviving ranks blocked with no progress" {
		t.Fatalf("kill reason = %q", why)
	}
	close(allDone)
	if v := <-verdict; v != [3]bool{true, false, false} {
		t.Fatalf("supervise = deadlock %v, timedOut %v, cancelled %v; want deadlock only", v[0], v[1], v[2])
	}
}

// Outcome precedence when a failure coincides with a quiescence verdict: the
// failing rank bumps failed before finished (see the defer pair in Run), so a
// frozen state that counts it finished is always reaped as a job abort. The
// failure is the run's outcome; Deadlock stays false whichever of the crash
// and the last park comes first.
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
				// Crash only once every peer is parked, so the crash itself
				// completes the fin+blk == size sum.
				for r.world.blocked.Load() != 3 {
					runtime.Gosched()
				}
			}
			panic(SegFault{Op: "test", Offset: 8, Length: 8, Bound: 8})
		})
		if res.Deadlock || res.TimedOut {
			t.Fatalf("rep %d: Deadlock %v TimedOut %v, want a job abort", i, res.Deadlock, res.TimedOut)
		}
		if _, ok := res.FirstError().(SegFault); !ok {
			t.Fatalf("rep %d: FirstError = %v, want the SegFault", i, res.FirstError())
		}
		for _, rr := range res.Ranks[1:] {
			if k, ok := rr.Err.(Killed); !ok || k.Reason != "job abort: peers starved by a failed rank" {
				t.Fatalf("rep %d: rank %d error = %v, want Killed by the job abort", i, rr.Rank, rr.Err)
			}
		}
	}
}

// booksApp drives every way a message can leave an inbox: Recv, Irecv with
// Wait and with Test, RecvOrFail (behind a death watch, on a faulty
// network), CommSplit and all thirteen collectives. It ends by sending
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
	r.Send(CommWorld, next, 4, []byte{4})
	if _, ok := r.RecvOrFail(CommWorld, prev, 4); !ok {
		r.Abort("RecvOrFail found a live source dead")
	}
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

// After the run, the books balance: every message delivered into an inbox
// was either absorbed out of it or is still queued there. All drains go
// through absorb, the only place a message leaves an inbox while ranks
// run; a receive path that took a message without booking it would leave
// delivered − absorbed above what is queued, and exactNow would then refuse
// a frozen run forever.
func TestQuiescenceBooksBalance(t *testing.T) {
	for i := 0; i < 20; i++ {
		var w *World
		res := Run(RunOptions{NumRanks: 4, Network: net2(t, 4), DisablePooling: true, Timeout: 30 * time.Second}, func(r *Rank) error {
			if r.ID() == 0 {
				w = r.world
			}
			return booksApp(r)
		})
		if err := res.FirstError(); err != nil || res.Deadlock || res.TimedOut {
			t.Fatalf("run %d: %v (deadlock %v, timeout %v)", i, err, res.Deadlock, res.TimedOut)
		}
		delivered, absorbed, queued := w.books()
		if delivered-absorbed != queued || queued == 0 {
			t.Fatalf("run %d: delivered %d − absorbed %d = %d, but the inboxes hold %d", i, delivered, absorbed, delivered-absorbed, queued)
		}
	}
}
