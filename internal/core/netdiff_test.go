package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/shoot"
	"github.com/fastfit/fastfit/internal/fault"
)

// The network determinism suite extends the differential identity contract
// to the topology fault domain: a campaign with a topology, a structured
// link/node fault plan and a resilient-algorithm variant must emit
// byte-identical campaign JSON and JSONL event streams when run twice with
// the same seed, on every campaign path (direct, ML, adaptive,
// interrupt/resume). Every trial builds its own Network, so any leaked
// link-state mutation, unordered survivor set or rng misuse in the fault
// domain shows up here as a byte diff.

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

// runNetSerial runs one serial campaign leg over the network fault domain
// and captures both output surfaces.
func runNetSerial(t *testing.T, opts Options, algorithm string) diffCampaign {
	t.Helper()
	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	opts.Observer = jo
	res, err := netDiffEngine(t, opts, algorithm).RunCampaign()
	if err != nil {
		t.Fatalf("network campaign: %v", err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	return diffCampaign{json: campaignBytes(t, res), stream: stream.Bytes()}
}

// runNetResumed interrupts a single-worker supervised network campaign
// after two completed points and resumes it from the checkpoint,
// mirroring runDiffResumed: the deterministic surfaces are the resume
// leg's stream and the final campaign JSON.
func runNetResumed(t *testing.T, opts Options, algorithm string) diffCampaign {
	t.Helper()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "netdiff.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 2 {
			cancel()
		}
	})
	first, err := NewSupervisor(netDiffEngine(t, intOpts, algorithm), SupervisorOptions{
		Workers:    1,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatalf("interrupted leg: %v", err)
	}
	if !first.Cancelled {
		t.Logf("campaign completed before cancellation")
	}

	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	resumeOpts := opts
	resumeOpts.Observer = jo
	res, err := ResumeCampaign(context.Background(), netDiffEngine(t, resumeOpts, algorithm), SupervisorOptions{
		Workers:    1,
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatalf("resume leg: %v", err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Cancelled || len(res.Quarantined) != 0 {
		t.Fatalf("resume leg not clean: %+v", res)
	}
	redacted := bytes.ReplaceAll(stream.Bytes(), []byte(ckpt), []byte("CKPT"))
	return diffCampaign{json: campaignBytes(t, res.CampaignResult), stream: redacted}
}

func compareNetDiff(t *testing.T, path string, first, second diffCampaign) {
	t.Helper()
	if !bytes.Equal(first.json, second.json) {
		t.Errorf("%s: campaign JSON diverges between identical runs\nfirst:  %s\nsecond: %s",
			path, first.json, second.json)
	}
	if !bytes.Equal(first.stream, second.stream) {
		t.Errorf("%s: JSONL event stream diverges between identical runs\nfirst:\n%s\nsecond:\n%s",
			path, first.stream, second.stream)
	}
}

// TestNetworkCampaignDeterminism sweeps 20 seeds across the four campaign
// paths with a torus topology and a standing link/drop/crash plan,
// requiring run-vs-rerun byte identity. The algorithm variant rotates with
// the seed so every variant in netDiffVariants covers every path across
// the sweep — the same-plan/different-variant matrix the shootout relies on.
func TestNetworkCampaignDeterminism(t *testing.T) {
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		// Mirror TestDifferentialPooledIdentity: the full sweep is the
		// uninstrumented CI step's job. Four seeds still visit at least one
		// seed per algorithm variant.
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		alg := netDiffVariants[int(seed)%len(netDiffVariants)]
		t.Run(fmt.Sprintf("seed=%d/alg=%s", seed, alg), func(t *testing.T) {
			t.Parallel()

			t.Run("direct", func(t *testing.T) {
				opts := netDiffOptions(t, seed)
				compareNetDiff(t, "direct", runNetSerial(t, opts, alg), runNetSerial(t, opts, alg))
			})
			t.Run("ml", func(t *testing.T) {
				opts := netDiffOptions(t, seed)
				opts.ML.Pruning = true
				opts.ML.Batch = 2
				opts.ML.MinTrain = 4
				compareNetDiff(t, "ml", runNetSerial(t, opts, alg), runNetSerial(t, opts, alg))
			})
			t.Run("adaptive", func(t *testing.T) {
				opts := netDiffOptions(t, seed)
				opts.Adaptive.Enabled = true
				opts.TrialsPerPoint = 12
				compareNetDiff(t, "adaptive", runNetSerial(t, opts, alg), runNetSerial(t, opts, alg))
			})
			t.Run("resumed", func(t *testing.T) {
				opts := netDiffOptions(t, seed)
				compareNetDiff(t, "resumed", runNetResumed(t, opts, alg), runNetResumed(t, opts, alg))
			})
		})
	}
}

// TestNetworkVariantSweepDiverges runs the three variant legs under the
// identical plan and seed and requires their campaign JSON to differ
// pairwise: the variant must be part of the campaign identity (fingerprint
// and event stream), or a cache/checkpoint could serve one variant's
// results for another.
func TestNetworkVariantSweepDiverges(t *testing.T) {
	legs := make(map[string]diffCampaign, len(netDiffVariants))
	for _, alg := range netDiffVariants {
		legs[alg] = runNetSerial(t, netDiffOptions(t, 11), alg)
	}
	for i, a := range netDiffVariants {
		for _, b := range netDiffVariants[i+1:] {
			if bytes.Equal(legs[a].json, legs[b].json) {
				t.Errorf("campaign JSON identical for variants %s and %s under the same plan", a, b)
			}
		}
	}
}

// TestNetworkPolicyDeterminism pins the PolicyNetwork trial path: random
// egress-drop/egress-fail/crash faults drawn at collective sites must be a
// pure function of the campaign seed.
func TestNetworkPolicyDeterminism(t *testing.T) {
	opts := netDiffOptions(t, 7)
	opts.Network.Plan = nil
	opts.Policy = PolicyNetwork
	compareNetDiff(t, "policy-network", runNetSerial(t, opts, "baseline"), runNetSerial(t, opts, "baseline"))
}
