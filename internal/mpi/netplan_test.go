package mpi_test

import (
	"slices"
	"testing"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The campaign matrix's network row (netDiffOptions in internal/core) runs
// is at 4 ranks on a 2x2 torus under this plan. Each of its entries acts on
// its own: a link or drop entry drops some src→dst message of a network
// that carries it alone, and a crash entry starts its rank dead; an entry
// that acts nowhere leaves its path of the fault domain unexercised while
// the row still passes.
func TestMatrixNetPlanEveryEntryActs(t *testing.T) {
	topo, err := mpi.ParseTopology("torus:2x2", 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseNetPlan("link:0-2,drop:0-1:2,crash:3")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.ValidateNetPlan(plan, topo); err != nil {
		t.Fatal(err)
	}
	for _, f := range plan {
		net := mpi.NewNetwork(topo)
		crashed := fault.ApplyNetPlan(net, []fault.NetFault{f})
		dropped := 0
		for src := range 4 {
			for dst := range 4 {
				if !net.Deliver(src, dst) {
					dropped++
				}
			}
		}
		if f.Kind == fault.NodeCrash && !slices.Equal(crashed, []int{f.Rank}) || f.Kind != fault.NodeCrash && dropped == 0 {
			t.Errorf("%s acts nowhere: it drops %d of the 16 src→dst messages and starts %v dead", f, dropped, crashed)
		}
	}
}
