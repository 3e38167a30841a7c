package mpi

import (
	"testing"
	"time"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want string
		ok   bool
	}{
		{"", 8, "flat", true},
		{"flat", 8, "flat", true},
		{"ring", 8, "ring", true},
		{"torus", 12, "torus:3x4", true},
		{"torus:2x4", 8, "torus:2x4", true},
		{"Torus:4x2", 8, "torus:4x2", true},
		{"torus:3x3", 8, "", false},
		{"torus:0x8", 8, "", false},
		{"torus:axb", 8, "", false},
		{"mesh", 8, "", false},
		{"ring", 0, "", false},
		{"ring", -3, "", false},
	}
	for _, c := range cases {
		topo, err := ParseTopology(c.spec, c.n)
		if c.ok != (err == nil) {
			t.Errorf("ParseTopology(%q, %d): err = %v, want ok=%v", c.spec, c.n, err, c.ok)
			continue
		}
		if c.ok && topo.Name() != c.want {
			t.Errorf("ParseTopology(%q, %d).Name() = %q, want %q", c.spec, c.n, topo.Name(), c.want)
		}
	}
}

// Every topology's routing must reach any destination within Nodes() hops,
// stepping only across declared neighbor links.
func TestTopologyRoutingReachesAllPairs(t *testing.T) {
	for _, spec := range []string{"flat", "ring", "torus:4x4", "torus:1x16", "torus:2x8"} {
		topo, err := ParseTopology(spec, 16)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		n := topo.Nodes()
		isNeighbor := func(a, b int) bool {
			for _, x := range topo.Neighbors(a) {
				if x == b {
					return true
				}
			}
			return false
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				u := src
				for steps := 0; u != dst; steps++ {
					if steps > n {
						t.Fatalf("%s: route %d->%d does not converge", spec, src, dst)
					}
					v := topo.NextHop(u, dst)
					if !isNeighbor(u, v) {
						t.Fatalf("%s: route %d->%d steps %d->%d across a non-link", spec, src, dst, u, v)
					}
					u = v
				}
			}
		}
	}
}

// A message whose route crosses a failed link is silently dropped, exactly
// like a lossy fabric; the sender proceeds.
func TestFailedLinkDropsMessage(t *testing.T) {
	net := net2(t, 4)
	net.FailLink(0, 1)
	if net.LinksDown() != 1 {
		t.Fatalf("LinksDown = %d, want 1", net.LinksDown())
	}
	res := Run(RunOptions{NumRanks: 4, Network: net, Timeout: 5 * time.Second}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(CommWorld, 1, 9, []byte{42}) // dropped
			r.Send(CommWorld, 2, 9, []byte{42}) // delivered
		case 1:
			// A send is enqueued before it returns, so once rank 2 has
			// heard from rank 0, rank 0's message to rank 1 would be here
			// had the fabric delivered it.
			r.Recv(CommWorld, 2, 10)
			if done, _ := r.Irecv(CommWorld, 0, 9).Test(); done {
				t.Error("the message across the failed link was delivered")
			}
		case 2:
			r.Recv(CommWorld, 0, 9)
			r.Send(CommWorld, 1, 10, nil)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}

	// Every hop of the route counts: on the ring, 1->4 goes clockwise
	// through the failed 2-3 link, 0->5 the short way round (0->7->6->5).
	topo, err := ParseTopology("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewNetwork(topo)
	ring.FailLink(2, 3)
	for _, c := range []struct {
		src, dst int
		want     bool
	}{{1, 4, false}, {4, 1, false}, {0, 5, true}, {2, 1, true}, {3, 3, true}} {
		if got := ring.deliver(c.src, c.dst); got != c.want {
			t.Errorf("deliver(%d, %d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

// A rank crashed before launch starves a baseline collective; the
// supervisor reaps the survivors as a job abort (Killed, not a deadlock of
// the application's own making) so classification lands in INF_LOOP.
func TestCrashedRankStarvesBaselineCollective(t *testing.T) {
	res := Run(RunOptions{NumRanks: 4, CrashedRanks: []int{0}, Timeout: 10 * time.Second}, func(r *Rank) error {
		buf := r.NewInt64Buffer(1)
		r.Bcast(buf, 1, Int64, 0, CommWorld)
		return nil
	})
	if res.Deadlock {
		t.Fatal("starvation by a crashed rank must not be reported as application deadlock")
	}
	if _, ok := res.FirstError().(Killed); !ok {
		t.Fatalf("FirstError = %v, want Killed (job abort)", res.FirstError())
	}
	if _, ok := res.Ranks[0].Err.(NodeCrashed); !ok {
		t.Fatalf("rank 0 error = %v, want NodeCrashed", res.Ranks[0].Err)
	}
}

// FirstError ranks NodeCrashed below every other error kind.
func TestFirstErrorCrashPriority(t *testing.T) {
	res := RunResult{Ranks: []RankResult{
		{Rank: 0, Err: NodeCrashed{Rank: 0, Reason: "x"}},
		{Rank: 1, Err: Killed{Reason: "y"}},
	}}
	if _, ok := res.FirstError().(Killed); !ok {
		t.Fatalf("FirstError = %v, want Killed over NodeCrashed", res.FirstError())
	}
	res = RunResult{Ranks: []RankResult{
		{Rank: 0, Err: NodeCrashed{Rank: 0, Reason: "x"}},
		{Rank: 1},
	}}
	if _, ok := res.FirstError().(NodeCrashed); !ok {
		t.Fatalf("FirstError = %v, want NodeCrashed", res.FirstError())
	}
}

// Senders blocked on a full inbox of a rank that then dies must not hang:
// the death mark wakes them, they re-check it, and the fabric discards.
func TestBlockedSenderReleasedByCrash(t *testing.T) {
	res := Run(RunOptions{NumRanks: 3, Network: net2(t, 3), MailboxCap: 1, Timeout: 10 * time.Second}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			// Wait for the signal that rank 1 jammed, then crash.
			r.Recv(CommWorld, 2, 3)
			panic(NodeCrashed{Rank: 0, Reason: "test crash"})
		case 1:
			r.Send(CommWorld, 0, 1, []byte{1}) // fills the 1-slot inbox...
			r.Send(CommWorld, 2, 2, []byte{2}) // tell 2 we are about to jam
			r.Send(CommWorld, 0, 1, []byte{3}) // jams until 0 dies
		case 2:
			r.Recv(CommWorld, 1, 2)
			r.Send(CommWorld, 0, 3, []byte{9})
		}
		return nil
	})
	if _, ok := res.FirstError().(NodeCrashed); !ok {
		t.Fatalf("FirstError = %v, want NodeCrashed (blocked sender must be released)", res.FirstError())
	}
}

func net2(t *testing.T, n int) *Network {
	t.Helper()
	topo, err := ParseTopology("flat", n)
	if err != nil {
		t.Fatal(err)
	}
	return NewNetwork(topo)
}
