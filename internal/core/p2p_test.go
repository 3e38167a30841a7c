package core

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// ringApp passes a token around the ring via user Send/Recv, then agrees
// on the result — a p2p-heavy workload for the extension tests.
type ringApp struct{}

func (ringApp) Name() string { return "ring" }

func (ringApp) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 4, Scale: 1, Iters: 3, Seed: 21}
}

func (ringApp) Main(r *mpi.Rank, cfg apps.Config) error {
	r.SetPhase(mpi.PhaseCompute)
	p := r.NumRanks()
	token := float64(1)
	for i := 0; i < cfg.Iters; i++ {
		r.Tick(50)
		if r.ID() == 0 {
			r.SendFloat64s(mpi.CommWorld, 1, 5, []float64{token})
			token = r.RecvFloat64s(mpi.CommWorld, p-1, 5)[0]
		} else {
			v := r.RecvFloat64s(mpi.CommWorld, r.ID()-1, 5)[0]
			r.SendFloat64s(mpi.CommWorld, (r.ID()+1)%p, 5, []float64{v + 1})
		}
	}
	r.SetPhase(mpi.PhaseEnd)
	total := r.ReduceFloat64s([]float64{token}, mpi.OpSum, 0, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(total[0])
	}
	return nil
}

func ringEngine(t *testing.T) *Engine {
	t.Helper()
	app := ringApp{}
	opts := DefaultOptions()
	opts.RunTimeout = 10 * time.Second
	e := New(app, app.DefaultConfig(), opts)
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestP2PPointsEnumerated(t *testing.T) {
	e := ringEngine(t)
	points, err := e.P2PPoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no p2p points found")
	}
	// Rank 0: 1 send site x3 + 1 recv site x3; ranks 1-3: recv x3 + send
	// x3 each = 24 total invocations.
	if len(points) != 24 {
		t.Fatalf("p2p points = %d, want 24", len(points))
	}
	var sends, recvs int
	for _, p := range points {
		switch p.Kind {
		case mpi.P2PSend:
			sends++
		case mpi.P2PRecv:
			recvs++
		}
		if p.NInv != 3 {
			t.Fatalf("p2p NInv = %d, want 3: %v", p.NInv, p.String())
		}
	}
	if sends != 12 || recvs != 12 {
		t.Fatalf("sends=%d recvs=%d", sends, recvs)
	}
}

func TestContextPruneP2P(t *testing.T) {
	e := ringEngine(t)
	points, err := e.P2PPoints()
	if err != nil {
		t.Fatal(err)
	}
	kept, red := ContextPrune(points)
	if red <= 0.5 {
		t.Fatalf("loop invocations share stacks; reduction = %v", red)
	}
	// One representative per (rank, site): 2 sites per rank x 4 ranks.
	if len(kept) != 8 {
		t.Fatalf("kept = %d, want 8", len(kept))
	}
}

func TestInjectP2PDataFault(t *testing.T) {
	e := ringEngine(t)
	points, err := e.P2PPoints()
	if err != nil {
		t.Fatal(err)
	}
	var send P2PPoint
	found := false
	for _, p := range points {
		if p.Kind == mpi.P2PSend && p.Rank == 1 {
			send, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no send point on rank 1")
	}
	pr := e.InjectP2PPoint(send, 0, 12)
	if pr.Counts.Total() != 12 {
		t.Fatalf("trials = %v", pr.Counts)
	}
	// Data faults corrupt the token (WRONG_ANS at the root's report);
	// tag/peer faults derail the ring (deadlock, MPI errors). Nothing here
	// should crash the harness itself, and some trials must show errors.
	if pr.Counts[classify.Success] == pr.Counts.Total() {
		t.Fatalf("p2p faults on the token ring should cause visible errors: %v", pr.Counts)
	}
}

func TestP2PTagFaultDeadlocksOrErrors(t *testing.T) {
	e := ringEngine(t)
	points, err := e.P2PPoints()
	if err != nil {
		t.Fatal(err)
	}
	var recv P2PPoint
	for _, p := range points {
		if p.Kind == mpi.P2PRecv && p.Rank == 2 {
			recv = p
			break
		}
	}
	// Flip a low tag bit: the receive waits for a message nobody sends.
	f := fault.Fault{Rank: recv.Rank, Site: recv.Site, Invocation: 0, Target: fault.TargetP2PTag, Bit: 1}
	inj := fault.NewInjector(nil, f)
	res := e.exec(mpi.RunOptions{Hook: inj.Hook()})
	outcome := classify.Classify(e.Golden(), res)
	if outcome != classify.InfLoop && outcome != classify.MPIErr {
		t.Fatalf("mismatched tag should hang or error, got %v", outcome)
	}
	if len(inj.Applied()) != 1 {
		t.Fatalf("fault not applied")
	}
	// The engine runs the same fault the same way: a p2p fault is an
	// ordinary Fault, replayed in full (never forked).
	if got, _ := e.RunOnce(f); got != outcome {
		t.Fatalf("RunOnce of the tag fault = %v, the injector's run = %v", got, outcome)
	}
	if s := e.stats.snapshot(); s.Forked != 0 || s.Replayed != 1 {
		t.Fatalf("a p2p trial must replay in full: %+v", s)
	}
}

func TestP2PInjectorLeavesCollectivesAlone(t *testing.T) {
	e := ringEngine(t)
	// A p2p view with a fault no call is addressed by must not perturb
	// the run at all.
	inj := fault.NewInjector(nil, fault.Fault{Rank: -1, Target: fault.TargetP2PTag})
	res := e.exec(mpi.RunOptions{Hook: inj.Hook()})
	if outcome := classify.Classify(e.Golden(), res); outcome != classify.Success {
		t.Fatalf("no-fault p2p run should be SUCCESS, got %v", outcome)
	}
}

func TestP2PTargets(t *testing.T) {
	if got := fault.P2PTargetsFor(mpi.P2PSend); len(got) != 3 {
		t.Fatalf("send targets = %v", got)
	}
	if got := fault.P2PTargetsFor(mpi.P2PRecv); len(got) != 2 {
		t.Fatalf("recv targets = %v (no payload to corrupt)", got)
	}
	for _, tc := range []struct {
		t    fault.Target
		name string
	}{{fault.TargetP2PData, "data"}, {fault.TargetP2PTag, "tag"}, {fault.TargetP2PPeer, "peer"}} {
		if tc.t.String() != tc.name || !tc.t.IsP2P() || tc.t.IsNet() {
			t.Errorf("%d: String %q IsP2P %t IsNet %t, want %q true false", int(tc.t), tc.t.String(), tc.t.IsP2P(), tc.t.IsNet(), tc.name)
		}
	}
	// Appended after the net targets: every persisted target keeps its number.
	if fault.TargetP2PData != fault.TargetNetNode+1 || fault.NumTargets != fault.TargetP2PPeer+1 {
		t.Fatalf("p2p targets not appended: data=%d numTargets=%d", fault.TargetP2PData, fault.NumTargets)
	}
}
