package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/shoot"
	"github.com/fastfit/fastfit/internal/fault"
)

// The topology fault domain's campaigns: a topology, a structured link/node
// fault plan and a resilient-algorithm variant. The execution-mode matrix
// (TestCampaignEquivalence) runs them as its network row.

func netDiffOptions(t *testing.T, seed int64) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = seed
	opts.TrialsPerPoint = 3
	opts.ML.Pruning = false
	opts.RunTimeout = 10 * time.Second
	opts.Topology = "torus:2x2"
	plan, err := fault.ParseNetPlan("link:1-2,drop:0-3:2,crash:3")
	if err != nil {
		t.Fatal(err)
	}
	opts.Network.Plan = plan
	return opts
}

// netDiffVariants are the algorithm legs of the determinism sweep: the
// unprotected baseline (injection points at every collective site), a
// payload-protected variant (more sites, redundant traffic) and the
// rerouting ring (pure point-to-point — zero injection points, so its leg
// pins the fingerprint/event surface of an empty campaign under a plan).
var netDiffVariants = []string{"baseline", "corrected", "ftring"}

func netDiffEngine(t *testing.T, opts Options, algorithm string) *Engine {
	t.Helper()
	app := shoot.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 8
	cfg.Iters = 2
	cfg.Seed = opts.Seed
	cfg.Algorithm = algorithm
	return New(app, cfg, opts)
}

// runNetSerial runs one serial campaign over the network fault domain and
// returns its JSON.
func runNetSerial(t *testing.T, opts Options, algorithm string) []byte {
	t.Helper()
	res, err := netDiffEngine(t, opts, algorithm).RunCampaign()
	if err != nil {
		t.Fatalf("network campaign: %v", err)
	}
	return campaignBytes(t, res)
}

// TestNetworkVariantSweepDiverges runs the three variant legs under the
// identical plan and seed and requires their campaign JSON to differ
// pairwise: the variant must be part of the campaign identity (fingerprint
// and event stream), or a cache/checkpoint could serve one variant's
// results for another.
func TestNetworkVariantSweepDiverges(t *testing.T) {
	legs := make(map[string][]byte, len(netDiffVariants))
	for _, alg := range netDiffVariants {
		legs[alg] = runNetSerial(t, netDiffOptions(t, 11), alg)
	}
	for i, a := range netDiffVariants {
		for _, b := range netDiffVariants[i+1:] {
			if bytes.Equal(legs[a], legs[b]) {
				t.Errorf("campaign JSON identical for variants %s and %s under the same plan", a, b)
			}
		}
	}
}
