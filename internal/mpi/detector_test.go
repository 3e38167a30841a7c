package mpi

import (
	"testing"
	"time"
)

// The heartbeat monitor must not perturb the quiescence detector: a genuine
// application deadlock is still declared Deadlock even while heartbeat
// goroutines are alive and ticking. (The monitor never touches the
// blocked/finished/delivered/absorbed counters the detector reads.)
func TestHeartbeatDoesNotAffectDeadlockVerdict(t *testing.T) {
	net := net2(t, 2)
	res := Run(RunOptions{NumRanks: 2, Network: net, Timeout: 10 * time.Second}, func(r *Rank) error {
		r.StartHeartbeat(20 * time.Microsecond)
		// Both ranks wait on a message nobody sends.
		r.Recv(CommWorld, 1-r.ID(), 77)
		return nil
	})
	if !res.Deadlock {
		t.Fatal("genuine deadlock not detected while heartbeat was running")
	}
	if _, ok := res.FirstError().(Killed); !ok {
		t.Fatalf("FirstError = %v, want Killed", res.FirstError())
	}
}

// Conversely, a slow-but-live run with a heartbeat running must complete
// cleanly: neither the heartbeat ticks nor a rank sleeping (off-CPU but not
// blocked on communication) may be mistaken for quiescence.
func TestSlowLiveRunWithHeartbeatCompletes(t *testing.T) {
	net := net2(t, 2)
	res := Run(RunOptions{NumRanks: 2, Network: net, Timeout: 10 * time.Second}, func(r *Rank) error {
		r.StartHeartbeat(20 * time.Microsecond)
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

// StartHeartbeat is idempotent per run and the monitor shuts down with the
// world; repeated runs must not leak monitors or corrupt counters.
func TestHeartbeatLifecycle(t *testing.T) {
	for i := 0; i < 20; i++ {
		net := net2(t, 4)
		res := Run(RunOptions{NumRanks: 4, Network: net, Timeout: 5 * time.Second}, func(r *Rank) error {
			r.StartHeartbeat(10 * time.Microsecond)
			r.StartHeartbeat(50 * time.Microsecond) // second call: no-op
			buf := FromInt64s([]int64{int64(r.ID())})
			out := NewInt64Buffer(1)
			r.Allreduce(buf, out, 1, Int64, OpSum, CommWorld)
			if got := out.Int64(0); got != 6 {
				t.Errorf("allreduce under heartbeat = %d, want 6", got)
			}
			return nil
		})
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
	}
}
