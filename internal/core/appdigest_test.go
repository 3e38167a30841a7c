package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
)

// The three halo-exchange applications may be rewritten for speed (scratch
// reuse, receive-into); what they compute may not move. This golden pins,
// per application, seed and campaign mode, the SHA-256 of the campaign JSON
// and, separately, of its JSONL event stream — every trial's (target, bit,
// outcome) and every point's classification — so a rewrite that changes one
// halo value, one slice length a corrupted count indexes past, or one zeroed
// boundary cell shows up as a digest mismatch naming the leg. The two
// surfaces get a column each so that a change to the stream's accounting
// events (a new SnapshotStats field, say) visibly leaves the json column —
// the campaign's outcomes — untouched. A p2p leg injects directly into the
// Send/Recv calls the typed path serves.
//
// Regenerate (only when outcomes are meant to change):
//
//	go test ./internal/core -run TestGolden -update

// siteLines matches the line number inside a siteName ("mg.MG.Main
// mg.go:124"): editing an application moves its call sites' lines exactly
// as it moves their program counters, so both are pinned as 0.
var siteLines = regexp.MustCompile(`(\.go):[0-9]+`)

func appDigestEngine(app apps.App, seed int64, opts Options) *Engine {
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 16
	cfg.Iters = 2
	cfg.Seed = seed
	opts.Seed = seed
	return New(app, cfg, opts)
}

func TestGoldenAppOutcomes(t *testing.T) {
	var out bytes.Buffer
	digest := func(surface []byte) [sha256.Size]byte {
		surface = codeAddrs.ReplaceAll(surface, []byte(`"$1":0`))
		return sha256.Sum256(siteLines.ReplaceAll(surface, []byte("$1:0")))
	}
	for _, app := range []apps.App{mg.New(), lu.New(), minimd.New()} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, mode := range []string{"direct", "adaptive"} {
				opts := diffTestOptions(seed)
				if mode == "adaptive" {
					opts.Adaptive.Enabled = true
					opts.TrialsPerPoint = 12
				}
				var stream bytes.Buffer
				jo := NewJSONLObserver(&stream)
				opts.Observer = jo
				res, err := appDigestEngine(app, seed, opts).RunCampaign()
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", app.Name(), seed, mode, err)
				}
				if err := jo.Err(); err != nil {
					t.Fatal(err)
				}
				if len(res.Measured) == 0 {
					t.Fatalf("%s seed %d %s measured nothing", app.Name(), seed, mode)
				}
				fmt.Fprintf(&out, "%s/seed=%d/%s json=%x stream=%x\n", app.Name(), seed, mode,
					digest(campaignBytes(t, res)), digest(stream.Bytes()))
			}
		}

		// The p2p leg: two trials at every context-pruned Send/Recv point.
		e := appDigestEngine(app, 1, diffTestOptions(1))
		points, err := e.P2PPoints()
		if err != nil {
			t.Fatal(err)
		}
		points, _ = ContextPrune(points)
		if len(points) == 0 {
			t.Fatalf("%s has no p2p points", app.Name())
		}
		var p2p bytes.Buffer
		for i, p := range points {
			pr := e.InjectP2PPoint(p, i, 2)
			fmt.Fprintf(&p2p, "%d %v %d %s", p.Rank, p.Kind, p.Invocation, p.SiteName)
			for _, tr := range pr.Trials {
				fmt.Fprintf(&p2p, " %v/%d/%v", tr.Target, tr.Bit, tr.Outcome)
			}
			p2p.WriteByte('\n')
		}
		fmt.Fprintf(&out, "%s/seed=1/p2p trials=%x\n", app.Name(), digest(p2p.Bytes()))
	}
	goldenCompare(t, "app_outcomes.golden.txt", out.Bytes())
}
