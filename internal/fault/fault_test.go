package fault

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fastfit/fastfit/internal/mpi"
)

func mkCall(t mpi.CollType) *mpi.CollectiveCall {
	return &mpi.CollectiveCall{
		Rank: 0,
		Type: t,
		Args: &mpi.Args{
			Send:  mpi.FromFloat64s([]float64{1, 2, 3, 4}),
			Recv:  mpi.NewFloat64Buffer(4),
			Count: 4,
			Dtype: mpi.Float64,
			Op:    mpi.OpSum,
			Root:  0,
			Comm:  mpi.CommWorld,
		},
	}
}

func TestTargetsForEveryCollective(t *testing.T) {
	for ct := mpi.CollType(0); ct < mpi.NumCollTypes; ct++ {
		targets := TargetsFor(ct)
		if len(targets) == 0 {
			t.Errorf("%v has no injectable targets", ct)
		}
		// Comm is always injectable: every collective takes a communicator.
		found := false
		for _, target := range targets {
			if target == TargetComm {
				found = true
			}
		}
		if !found {
			t.Errorf("%v must allow comm injection", ct)
		}
	}
	if got := TargetsFor(mpi.CollBarrier); len(got) != 1 || got[0] != TargetComm {
		t.Errorf("barrier targets = %v, want [comm]", got)
	}
}

func TestApplyFlipsExactlyOneBit(t *testing.T) {
	cases := []struct {
		target Target
		read   func(a *mpi.Args) uint64
	}{
		{TargetCount, func(a *mpi.Args) uint64 { return uint64(uint32(a.Count)) }},
		{TargetDatatype, func(a *mpi.Args) uint64 { return uint64(uint32(a.Dtype)) }},
		{TargetOp, func(a *mpi.Args) uint64 { return uint64(uint32(a.Op)) }},
		{TargetRoot, func(a *mpi.Args) uint64 { return uint64(uint32(a.Root)) }},
		{TargetComm, func(a *mpi.Args) uint64 { return uint64(uint32(a.Comm)) }},
	}
	for _, c := range cases {
		for bit := 0; bit < 64; bit++ {
			call := mkCall(mpi.CollAllreduce)
			before := c.read(call.Args)
			f := Fault{Target: c.target, Bit: bit}
			if !f.Apply(call) {
				t.Fatalf("%v bit %d not applied", c.target, bit)
			}
			after := c.read(call.Args)
			diff := before ^ after
			if popcount(diff) != 1 {
				t.Fatalf("%v bit %d flipped %d bits (before=%x after=%x)", c.target, bit, popcount(diff), before, after)
			}
		}
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestApplyBufferFlip(t *testing.T) {
	call := mkCall(mpi.CollAllreduce)
	orig := append([]byte(nil), call.Args.Send.Bytes()...)
	f := Fault{Target: TargetSendBuf, Bit: 17}
	if !f.Apply(call) {
		t.Fatal("buffer fault not applied")
	}
	diff := 0
	for i, b := range call.Args.Send.Bytes() {
		if b != orig[i] {
			diff++
			if b^orig[i] != 1<<(17%8) {
				t.Fatalf("wrong bit flipped in byte %d", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want 1", diff)
	}
}

func TestApplyBufferFlipIsSelfInverse(t *testing.T) {
	f := func(bit int) bool {
		call := mkCall(mpi.CollAllreduce)
		orig := append([]byte(nil), call.Args.Send.Bytes()...)
		fault := Fault{Target: TargetSendBuf, Bit: bit}
		fault.Apply(call)
		fault.Apply(call)
		for i, b := range call.Args.Send.Bytes() {
			if b != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyEmptyBufferReportsMiss(t *testing.T) {
	call := mkCall(mpi.CollAllreduce)
	call.Args.Send = mpi.NewBuffer(0)
	f := Fault{Target: TargetSendBuf, Bit: 3}
	if f.Apply(call) {
		t.Fatal("flip into empty buffer should report a miss")
	}
}

func TestApplyCountsVec(t *testing.T) {
	call := mkCall(mpi.CollAlltoallv)
	call.Args.SendCounts = []int32{1, 2, 3}
	f := Fault{Target: TargetCountsVec, Bit: 32 + 4} // entry 1, bit 4
	if !f.Apply(call) {
		t.Fatal("counts-vec fault not applied")
	}
	if call.Args.SendCounts[1] != 2^(1<<4) {
		t.Fatalf("counts[1] = %d", call.Args.SendCounts[1])
	}
	// Falls back to RecvCounts when SendCounts is absent.
	call2 := mkCall(mpi.CollReduceScatter)
	call2.Args.RecvCounts = []int32{5}
	f2 := Fault{Target: TargetCountsVec, Bit: 0}
	if !f2.Apply(call2) || call2.Args.RecvCounts[0] != 4 {
		t.Fatalf("recv-counts fallback failed: %v", call2.Args.RecvCounts)
	}
	// Misses when neither vector exists.
	call3 := mkCall(mpi.CollAllreduce)
	if (Fault{Target: TargetCountsVec, Bit: 0}).Apply(call3) {
		t.Fatal("counts-vec without vectors should miss")
	}
}

func TestRandomFaultUsesOnlyApplicableTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		f := RandomFault(rng, 0, 0, 0, mpi.CollBarrier)
		if f.Target != TargetComm {
			t.Fatalf("barrier fault target = %v", f.Target)
		}
	}
	seen := map[Target]bool{}
	for i := 0; i < 500; i++ {
		f := RandomFault(rng, 0, 0, 0, mpi.CollAllreduce)
		seen[f.Target] = true
	}
	for _, want := range TargetsFor(mpi.CollAllreduce) {
		if !seen[want] {
			t.Errorf("target %v never drawn", want)
		}
	}
}

func TestDataBufferFaultPrefersSendBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		f := DataBufferFault(rng, 0, 0, 0, mpi.CollAllreduce)
		if f.Target != TargetSendBuf {
			t.Fatalf("data-buffer policy chose %v for allreduce", f.Target)
		}
		g := DataBufferFault(rng, 0, 0, 0, mpi.CollBarrier)
		if g.Target != TargetComm {
			t.Fatalf("data-buffer policy chose %v for barrier", g.Target)
		}
	}
}

func TestInjectorMatchesAddressedPoint(t *testing.T) {
	inj := NewInjector(nil, Fault{Rank: 1, Site: 0x100, Invocation: 2, Target: TargetCount, Bit: 0})
	miss := mkCall(mpi.CollAllreduce)
	miss.Rank = 1
	miss.Site = 0x100
	miss.Invocation = 1
	inj.BeforeCollective(miss)
	if len(inj.Applied()) != 0 {
		t.Fatal("injector fired at wrong invocation")
	}
	hit := mkCall(mpi.CollAllreduce)
	hit.Rank = 1
	hit.Site = 0x100
	hit.Invocation = 2
	inj.BeforeCollective(hit)
	if len(inj.Applied()) != 1 {
		t.Fatal("injector did not fire at addressed point")
	}
	if hit.Args.Count == 4 {
		t.Fatal("count not corrupted")
	}
}

func TestInjectorRecordsMisses(t *testing.T) {
	inj := NewInjector(nil, Fault{Rank: 0, Site: 0x1, Invocation: 0, Target: TargetSendBuf, Bit: 0})
	call := mkCall(mpi.CollAllreduce)
	call.Site = 0x1
	call.Args.Send = mpi.NewBuffer(0)
	inj.BeforeCollective(call)
	if len(inj.Missed()) != 1 || len(inj.Applied()) != 0 {
		t.Fatalf("miss bookkeeping wrong: applied=%v missed=%v", inj.Applied(), inj.Missed())
	}
}

func TestInjectorChainsDownstreamHook(t *testing.T) {
	var events int
	chain := &countingHook{n: &events}
	inj := NewInjector(chain)
	call := mkCall(mpi.CollAllreduce)
	inj.BeforeCollective(call)
	inj.AfterCollective(call)
	if events != 2 {
		t.Fatalf("downstream hook saw %d events, want 2", events)
	}
}

// TestP2PHookOnlyWithP2PTarget pins both sides of the P2P hook rule: a
// world whose hook is an mpi.P2PHook captures a call stack at every Send
// and Recv, so an injector without a p2p target must not be one, and an
// injector with one must be served through a view that is.
func TestP2PHookOnlyWithP2PTarget(t *testing.T) {
	plans := map[string][]Fault{
		"empty":      nil,
		"collective": {{Target: TargetSendBuf}, {Target: TargetComm}},
		"net":        {{Target: TargetNetLink}, {Target: TargetNetDrop}, {Target: TargetNetNode}},
	}
	for name, faults := range plans {
		inj := NewInjector(nil, faults...)
		if _, ok := any(inj).(mpi.P2PHook); ok {
			t.Errorf("%s plan: the injector implements mpi.P2PHook", name)
		}
		if _, ok := inj.Hook().(mpi.P2PHook); ok {
			t.Errorf("%s plan: the injector's hook implements mpi.P2PHook", name)
		}
	}
	for _, target := range []Target{TargetP2PData, TargetP2PTag, TargetP2PPeer} {
		inj := NewInjector(nil, Fault{Target: TargetSendBuf}, Fault{Rank: 1, Site: 0x10, Invocation: 2, Target: target})
		p, ok := inj.Hook().(mpi.P2PHook)
		if !ok {
			t.Fatalf("%v plan: the injector's hook does not implement mpi.P2PHook", target)
		}
		miss := &mpi.P2PCall{Rank: 1, Site: 0x10, Invocation: 1, Args: &mpi.P2PArgs{Data: []byte{1}, Tag: 5, Peer: 1}}
		p.BeforeP2P(miss)
		hit := &mpi.P2PCall{Rank: 1, Site: 0x10, Invocation: 2, Args: &mpi.P2PArgs{Data: []byte{1}, Tag: 5, Peer: 1}}
		p.BeforeP2P(hit)
		if got := inj.Applied(); len(got) != 1 || got[0].Target != target {
			t.Fatalf("%v plan: applied %v, want the one p2p fault", target, got)
		}
		if miss.Args.Tag != 5 || miss.Args.Peer != 1 || miss.Args.Data[0] != 1 {
			t.Fatalf("%v plan: a call at another invocation was corrupted: %+v", target, miss.Args)
		}
	}
}

// TestP2PTargetsNeverTouchCollectives: a p2p fault addressed to the triple a
// collective call comes up at leaves the call alone.
func TestP2PTargetsNeverTouchCollectives(t *testing.T) {
	inj := NewInjector(nil, Fault{Target: TargetP2PTag}, Fault{Target: TargetP2PPeer}, Fault{Target: TargetP2PData})
	call := mkCall(mpi.CollAllreduce)
	before := *call.Args
	inj.Hook().BeforeCollective(call)
	if len(inj.Applied())+len(inj.Missed()) != 0 || call.Args.Count != before.Count || call.Args.Root != before.Root {
		t.Fatalf("p2p faults acted on a collective: applied=%v missed=%v", inj.Applied(), inj.Missed())
	}
}

type countingHook struct {
	mpi.NopHook
	n *int
}

func (h *countingHook) BeforeCollective(*mpi.CollectiveCall) { *h.n++ }
func (h *countingHook) AfterCollective(*mpi.CollectiveCall)  { *h.n++ }

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig(func(string) string { return "" })
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (Config{}) {
		t.Fatalf("unset env should give zero config: %+v", cfg)
	}
}

func TestParseConfigValues(t *testing.T) {
	env := map[string]string{
		EnvNumInj: "100", EnvInvID: "7", EnvCallID: "3", EnvRankID: "12", EnvParamID: "2",
	}
	cfg, err := ParseConfig(func(k string) string { return env[k] })
	if err != nil {
		t.Fatal(err)
	}
	want := Config{NumInj: 100, InvID: 7, CallID: 3, RankID: 12, ParamID: 2}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
}

func TestParseConfigRejectsBadValues(t *testing.T) {
	cases := []map[string]string{
		{EnvInvID: "1234"},   // exceeds width 3
		{EnvParamID: "12"},   // exceeds width 1
		{EnvNumInj: "alpha"}, // not an integer
		{EnvRankID: "-1"},    // negative
	}
	for _, env := range cases {
		env := env
		if _, err := ParseConfig(func(k string) string { return env[k] }); err == nil {
			t.Errorf("env %v should be rejected", env)
		}
	}
}

func TestConfigFaultsExpansion(t *testing.T) {
	sites := []SiteRef{
		{Site: 0xA, Type: mpi.CollBcast},
		{Site: 0xB, Type: mpi.CollAllreduce},
	}
	cfg := Config{NumInj: 3, InvID: 1, CallID: 1, RankID: 2, ParamID: 2}
	rng := rand.New(rand.NewSource(1))
	faults, err := cfg.Faults(sites, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 3 {
		t.Fatalf("expanded %d faults, want 3", len(faults))
	}
	for _, f := range faults {
		if f.Site != 0xB || f.Rank != 2 || f.Invocation != 1 {
			t.Fatalf("fault addressed wrongly: %v", f)
		}
		if f.Target != TargetsFor(mpi.CollAllreduce)[2] {
			t.Fatalf("fault target = %v", f.Target)
		}
	}
}

func TestConfigFaultsRangeErrors(t *testing.T) {
	sites := []SiteRef{{Site: 0xA, Type: mpi.CollBarrier}}
	rng := rand.New(rand.NewSource(1))
	if _, err := (Config{NumInj: 1, CallID: 5}).Faults(sites, rng); err == nil {
		t.Error("out-of-range CALL_ID should error")
	}
	if _, err := (Config{NumInj: 1, ParamID: 9}).Faults(sites, rng); err == nil {
		t.Error("out-of-range PARAM_ID should error")
	}
	if fs, err := (Config{NumInj: 0}).Faults(sites, rng); err != nil || fs != nil {
		t.Error("NUM_INJ=0 should expand to nothing")
	}
}

// A link or drop entry acts only on a link of the topology, so a plan
// naming any other pair is refused, naming the entry: among them the
// campaign matrix's old torus plan, whose 1-2 and 0-3 are no links of a
// 2x2 torus. A flat fabric links every pair.
func TestValidateNetPlanRefusesNonLinks(t *testing.T) {
	for _, c := range []struct{ topo, plan, want string }{
		{"torus:2x2", "link:1-2,drop:0-3:2,crash:3", "net plan entry 0: net fault link:1-2: 1-2 is not a link of torus:2x2"},
		{"torus:2x2", "crash:3,drop:0-3:2", "net plan entry 1: net fault drop:0-3:2: 0-3 is not a link of torus:2x2"},
		{"flat", "link:1-2,drop:0-3:2,crash:3", "<nil>"},
	} {
		topo, err := mpi.ParseTopology(c.topo, 4)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ParseNetPlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateNetPlan(plan, topo); fmt.Sprint(err) != c.want {
			t.Errorf("%s on %s: %v, want %s", c.plan, c.topo, err, c.want)
		}
	}
}
