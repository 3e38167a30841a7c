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
