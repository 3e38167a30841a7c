package mpi

import (
	"runtime"
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

func TestNetworkMultiHopStats(t *testing.T) {
	topo, err := ParseTopology("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(topo)
	res := Run(RunOptions{NumRanks: 8, Network: net, Timeout: 5 * time.Second}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(CommWorld, 3, 7, []byte{1, 2, 3})
		}
		if r.ID() == 3 {
			r.Recv(CommWorld, 0, 7)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Messages != 1 || st.Dropped != 0 || st.Hops != 3 || st.LatencyNs != 120 {
		t.Fatalf("stats = %+v, want 1 msg, 3 hops, 120 ns", st)
	}
}

func TestPathBlockedAtStartLinkFailure(t *testing.T) {
	topo, err := ParseTopology("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(topo)
	net.FailLink(2, 3)
	if net.LinksDown() != 1 {
		t.Fatalf("LinksDown = %d, want 1", net.LinksDown())
	}
	// 1->4 routes clockwise through 2->3: blocked. 0->5 routes the short
	// way counter-clockwise (0->7->6->5): clear.
	if !net.PathBlocked(1, 4) {
		t.Error("PathBlocked(1,4) = false, want true (route crosses 2-3)")
	}
	if net.PathBlocked(0, 5) {
		t.Error("PathBlocked(0,5) = true, want false (route avoids 2-3)")
	}
	if net.PathBlocked(3, 3) {
		t.Error("PathBlocked(3,3) = true for self")
	}
}

// A message whose route crosses a failed link is silently dropped, exactly
// like a lossy fabric; the sender proceeds.
func TestFailedLinkDropsMessage(t *testing.T) {
	topo, err := ParseTopology("flat", 4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(topo)
	net.FailLink(0, 1)
	res := Run(RunOptions{NumRanks: 4, Network: net, Timeout: 5 * time.Second}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(CommWorld, 1, 9, []byte{42}) // dropped
			r.Send(CommWorld, 2, 9, []byte{42}) // delivered
		}
		if r.ID() == 2 {
			r.Recv(CommWorld, 0, 9)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Dropped != 1 || st.Messages != 2 {
		t.Fatalf("stats = %+v, want 2 messages 1 dropped", st)
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

func TestRecvOrFailDetectsAtStartCrash(t *testing.T) {
	res := Run(RunOptions{NumRanks: 2, CrashedRanks: []int{1}, Timeout: 5 * time.Second}, func(r *Rank) error {
		if r.AliveAtStart(1) {
			t.Error("AliveAtStart(1) = true for a crashed rank")
		}
		if data, ok := r.RecvOrFail(CommWorld, 1, 5); ok {
			t.Errorf("RecvOrFail from crashed rank returned %v", data)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

// A dying rank's sends happen-before its death mark: RecvOrFail must
// return the message sent before the crash, then report failure for the
// message that was never sent.
func TestRecvOrFailDrainsBeforeFailing(t *testing.T) {
	topo, _ := ParseTopology("flat", 2)
	for i := 0; i < 50; i++ {
		net := NewNetwork(topo)
		res := Run(RunOptions{NumRanks: 2, Network: net, Seed: int64(i), Timeout: 5 * time.Second}, func(r *Rank) error {
			if r.ID() == 1 {
				r.Send(CommWorld, 0, 5, []byte{7})
				panic(NodeCrashed{Rank: 1, Reason: "test crash"})
			}
			data, ok := r.RecvOrFail(CommWorld, 1, 5)
			if !ok || len(data) != 1 || data[0] != 7 {
				t.Errorf("first RecvOrFail = %v, %v; want pre-crash message", data, ok)
			}
			if _, ok := r.RecvOrFail(CommWorld, 1, 6); ok {
				t.Error("second RecvOrFail succeeded; rank 1 never sent tag 6")
			}
			return nil
		})
		if _, ok := res.FirstError().(NodeCrashed); !ok {
			t.Fatalf("FirstError = %v, want NodeCrashed", res.FirstError())
		}
	}
}

// A message a failed link dropped, from a source that stays alive, leaves
// RecvOrFail waiting forever, as a real receiver would: the run is frozen,
// and the last rank to park ends it as a deadlock at once, long before the
// wall clock could.
func TestRecvOrFailOnDroppedMessageDeadlocks(t *testing.T) {
	net := net2(t, 2)
	net.FailLink(0, 1)
	res := Run(RunOptions{NumRanks: 2, Network: net, Timeout: 30 * time.Second}, func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(CommWorld, 0, 5, []byte{7}) // dropped on the failed link
			r.Recv(CommWorld, 0, 6)            // alive, and parked
			return nil
		}
		if data, ok := r.RecvOrFail(CommWorld, 1, 5); ok {
			t.Errorf("RecvOrFail returned %v; the message was dropped", data)
		}
		return nil
	})
	if !res.Deadlock || res.TimedOut {
		t.Fatalf("Deadlock %v TimedOut %v, want a deadlock verdict", res.Deadlock, res.TimedOut)
	}
	if res.Elapsed > 10*time.Second {
		t.Fatalf("deadlock ended after %v; the last park should end it at once", res.Elapsed)
	}
	for _, rr := range res.Ranks {
		if k, ok := rr.Err.(Killed); !ok || k.Reason != "deadlock: all surviving ranks blocked with no progress" {
			t.Fatalf("rank %d error = %v, want Killed by the deadlock verdict", rr.Rank, rr.Err)
		}
	}
}

// A rank already parked in RecvOrFail when its source crashes is woken by
// the death mark and returns the failure verdict. The crash comes only once
// the receiver is parked, at one P and at two.
func TestRecvOrFailWokenByMidRunCrash(t *testing.T) {
	reps := 200
	if testing.Short() {
		reps = 20
	}
	for i := 0; i < reps; i++ {
		res := Run(RunOptions{NumRanks: 2, Network: net2(t, 2), Timeout: 30 * time.Second}, func(r *Rank) error {
			if r.ID() == 1 {
				for r.world.parkedCount() != 1 {
					runtime.Gosched()
				}
				panic(NodeCrashed{Rank: 1, Reason: "test crash"})
			}
			if data, ok := r.RecvOrFail(CommWorld, 1, 5); ok {
				t.Errorf("RecvOrFail returned %v from a rank that never sent", data)
			}
			return nil
		})
		if res.Ranks[0].Err != nil || res.Deadlock || res.TimedOut {
			t.Fatalf("rep %d: receiver error %v, Deadlock %v, TimedOut %v; want RecvOrFail's verdict", i, res.Ranks[0].Err, res.Deadlock, res.TimedOut)
		}
	}

	// The same wake by hand, so the state it guards against is met every
	// time: the receiver parked on its source, the source's crash counted
	// finished. The death mark must un-count the receiver before it runs,
	// and the run must stay live while it has yet to.
	sh := newShell(2)
	w := &World{size: 2, ranks: sh.ranks, mailbox: 8, faulty: true, dead: make([]bool, 2)}
	receiver := w.ranks[0]
	receiver.world = w
	receiver.parked, w.parked = true, 1
	w.exit(1, NodeCrashed{Rank: 1, Reason: "test crash"})
	if w.killed() || w.parkedCount() != 0 || receiver.parked {
		t.Fatalf("after the crash: killed %v, %d parked; the woken receiver must be un-counted before it runs", w.killed(), w.parkedCount())
	}
	<-receiver.wake
	if _, ok := receiver.recvMatch(matcher{CommWorld, 1, 5}, 1); ok || w.killed() {
		t.Fatalf("woken receiver: ok %v, killed %v; want the failure verdict in a live run", ok, w.killed())
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
