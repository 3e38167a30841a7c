package resilient

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/mpi"
)

func runNet(t *testing.T, n int, net *mpi.Network, crashed []int, fn func(r *mpi.Rank) error) mpi.RunResult {
	t.Helper()
	return mpi.Run(mpi.RunOptions{
		NumRanks: n, Seed: 9, Timeout: 10 * time.Second,
		Network: net, CrashedRanks: crashed,
	}, fn)
}

func ringNet(t *testing.T, n int) *mpi.Network {
	t.Helper()
	topo, err := mpi.ParseTopology("ring", n)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewNetwork(topo)
}

// Every registered algorithm must agree with the plain sum / exchange on a
// fault-free run — with and without a simulated interconnect attached.
func TestZooNoFaultAgreement(t *testing.T) {
	const n = 8
	for _, name := range Names() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, withNet := range []bool{false, true} {
			var net *mpi.Network
			if withNet {
				net = ringNet(t, n)
			}
			res := runNet(t, n, net, nil, func(r *mpi.Rank) error {
				me := int64(r.ID())
				send := mpi.FromInt64s([]int64{me + 1, 10 * (me + 1)})
				recv := mpi.NewInt64Buffer(2)
				alg.Allreduce(r, send, recv, 2, mpi.Int64, mpi.OpSum, mpi.CommWorld)
				if recv.Int64(0) != 36 || recv.Int64(1) != 360 {
					t.Errorf("%s allreduce = %d,%d want 36,360", name, recv.Int64(0), recv.Int64(1))
				}

				blocks := make([]int64, n)
				for i := range blocks {
					blocks[i] = 100*me + int64(i)
				}
				a2aSend := mpi.FromInt64s(blocks)
				a2aRecv := mpi.NewInt64Buffer(n)
				alg.Alltoall(r, a2aSend, a2aRecv, 1, mpi.Int64, mpi.CommWorld)
				for i := 0; i < n; i++ {
					if want := 100*int64(i) + me; a2aRecv.Int64(i) != want {
						t.Errorf("%s alltoall[%d] = %d want %d", name, i, a2aRecv.Int64(i), want)
					}
				}
				return nil
			})
			if err := res.FirstError(); err != nil {
				t.Fatalf("%s (net=%v): %v", name, withNet, err)
			}
		}
	}
}

// hbreorg survives a rank that crashed before launch: the survivors build
// their tree over the survivor set and complete with the survivor-only sum.
func TestHbreorgSurvivesAtStartCrash(t *testing.T) {
	const n, dead = 6, 2
	alg, err := Get("hbreorg")
	if err != nil {
		t.Fatal(err)
	}
	res := runNet(t, n, ringNet(t, n), []int{dead}, func(r *mpi.Rank) error {
		send := mpi.FromInt64s([]int64{1 << r.ID()})
		recv := mpi.NewInt64Buffer(1)
		alg.Allreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		want := int64(1<<n-1) &^ (1 << dead)
		if recv.Int64(0) != want {
			t.Errorf("survivor sum = %#x want %#x", recv.Int64(0), want)
		}

		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(100*r.ID() + i)
		}
		a2aSend := mpi.FromInt64s(blocks)
		a2aRecv := mpi.NewInt64Buffer(n)
		alg.Alltoall(r, a2aSend, a2aRecv, 1, mpi.Int64, mpi.CommWorld)
		for i := 0; i < n; i++ {
			want := int64(100*i + r.ID())
			if i == dead {
				want = 0 // dead rank's block is left untouched
			}
			if a2aRecv.Int64(i) != want {
				t.Errorf("alltoall[%d] = %d want %d", i, a2aRecv.Int64(i), want)
			}
		}
		return nil
	})
	if _, ok := res.FirstError().(mpi.NodeCrashed); !ok {
		t.Fatalf("FirstError = %v, want NodeCrashed (survivors must complete)", res.FirstError())
	}
	for i, rr := range res.Ranks {
		if i != dead && rr.Err != nil {
			t.Errorf("survivor rank %d failed: %v", i, rr.Err)
		}
	}
}

// A rank dying mid-run (between two protected collectives, exactly like an
// injected TargetNetNode crash) is detected at a message-consumption point
// in the next collective and aborts visibly (APP_DETECTED), never hanging.
func TestHbreorgDetectsMidRunCrash(t *testing.T) {
	const n = 6
	res := runNet(t, n, ringNet(t, n), nil, func(r *mpi.Rank) error {
		for round := 0; round < 2; round++ {
			if r.ID() == 1 && round == 1 {
				panic(mpi.NodeCrashed{Rank: 1, Reason: "injected mid-run crash"})
			}
			send := mpi.FromInt64s([]int64{int64(r.ID() + round)})
			recv := mpi.NewInt64Buffer(1)
			HeartbeatAllreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		}
		return nil
	})
	if _, ok := res.FirstError().(mpi.AppError); !ok {
		t.Fatalf("FirstError = %v, want AppError (failure detector must fire)", res.FirstError())
	}
}

// ftring reroutes around a single failed ring link and still produces the
// full-ring result: rerouting, not degradation.
func TestFTRingReroutesAroundLinkFailure(t *testing.T) {
	const n = 6
	alg, err := Get("ftring")
	if err != nil {
		t.Fatal(err)
	}
	net := ringNet(t, n)
	net.FailLink(2, 3)
	res := runNet(t, n, net, nil, func(r *mpi.Rank) error {
		send := mpi.FromInt64s([]int64{int64(r.ID()) + 1})
		recv := mpi.NewInt64Buffer(1)
		alg.Allreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		if recv.Int64(0) != 21 {
			t.Errorf("rerouted allreduce = %d want 21", recv.Int64(0))
		}

		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(100*r.ID() + i)
		}
		a2aSend := mpi.FromInt64s(blocks)
		a2aRecv := mpi.NewInt64Buffer(n)
		alg.Alltoall(r, a2aSend, a2aRecv, 1, mpi.Int64, mpi.CommWorld)
		for i := 0; i < n; i++ {
			if want := int64(100*i + r.ID()); a2aRecv.Int64(i) != want {
				t.Errorf("rerouted alltoall[%d] = %d want %d", i, a2aRecv.Int64(i), want)
			}
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatalf("one failed ring link must be survivable: %v", err)
	}
}

// Two failed ring links partition the line: ftring must abort visibly
// rather than hang or compute over a partition.
func TestFTRingAbortsOnPartition(t *testing.T) {
	const n = 6
	alg, err := Get("ftring")
	if err != nil {
		t.Fatal(err)
	}
	net := ringNet(t, n)
	net.FailLink(1, 2)
	net.FailLink(4, 5)
	res := runNet(t, n, net, nil, func(r *mpi.Rank) error {
		send := mpi.FromInt64s([]int64{1})
		recv := mpi.NewInt64Buffer(1)
		alg.Allreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		return nil
	})
	if _, ok := res.FirstError().(mpi.AppError); !ok {
		t.Fatalf("FirstError = %v, want AppError (ring partitioned)", res.FirstError())
	}
}

// A crashed rank breaks both its ring edges; ftring treats that as a
// partition and aborts instead of waiting on a dead neighbor.
func TestFTRingAbortsOnCrashedRank(t *testing.T) {
	const n = 6
	alg, err := Get("ftring")
	if err != nil {
		t.Fatal(err)
	}
	res := runNet(t, n, ringNet(t, n), []int{3}, func(r *mpi.Rank) error {
		send := mpi.FromInt64s([]int64{1})
		recv := mpi.NewInt64Buffer(1)
		alg.Allreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
		return nil
	})
	if _, ok := res.FirstError().(mpi.AppError); !ok {
		t.Fatalf("FirstError = %v, want AppError (partition by crash)", res.FirstError())
	}
}

// TestHeartbeatReorgStress is the -race stress test CI runs: many repeated
// hbreorg collectives, at-start crashes, and many concurrent failing links
// (every rank fails one of its own egress links mid-run, from its own
// goroutine, while its peers send and wait). The assertion is termination
// without data races; the runtime may classify each run as survival or
// detected failure, but never hang.
func TestHeartbeatReorgStress(t *testing.T) {
	const n = 8
	topo, err := mpi.ParseTopology("torus:2x4", n)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 6; iter++ {
		net := mpi.NewNetwork(topo)
		var crashed []int
		if iter%2 == 1 {
			crashed = []int{iter % n}
		}
		res := mpi.Run(mpi.RunOptions{
			NumRanks: n, Seed: int64(iter), Timeout: 10 * time.Second,
			Network: net, CrashedRanks: crashed,
		}, func(r *mpi.Rank) error {
			for round := 0; round < 4; round++ {
				if round == 2 {
					// Mid-run: every live rank degrades its own fabric
					// concurrently — link failures and drop bursts race
					// with message routing.
					nbrs := net.Topology().Neighbors(r.ID())
					net.FailEgress(r.ID(), nbrs[r.ID()%len(nbrs)])
					net.DropEgress(r.ID(), nbrs[(r.ID()+1)%len(nbrs)], 3)
				}
				send := mpi.FromInt64s([]int64{int64(r.ID() + round)})
				recv := mpi.NewInt64Buffer(1)
				HeartbeatAllreduce(r, send, recv, 1, mpi.Int64, mpi.OpSum, mpi.CommWorld)
			}
			return nil
		})
		// Outcomes vary with the fault pattern (clean completion, crash
		// survival, detected failure, or a reaped run when a dropped lib
		// message starves a receiver); hanging is the only failure mode.
		_ = res
	}
}
