package fastfit_test

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit"
)

func TestPublicAPIQuickCampaign(t *testing.T) {
	app, err := fastfit.LookupApp("is")
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	opts := fastfit.DefaultOptions()
	opts.TrialsPerPoint = 5
	opts.RunTimeout = 10 * time.Second

	engine := fastfit.New(app, cfg, opts)
	res, err := engine.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPoints == 0 || res.Injected == 0 {
		t.Fatalf("campaign did nothing: %+v", res)
	}
	counts := fastfit.OutcomeBreakdown(res.Measured)
	if counts.Total() != res.Injected*opts.TrialsPerPoint {
		t.Fatalf("tally mismatch: %d vs %d", counts.Total(), res.Injected*opts.TrialsPerPoint)
	}
	corr := fastfit.CorrelationTable(res.Measured, 4)
	if len(corr) != len(fastfit.ExpandedFeatureNames) {
		t.Fatalf("correlation table incomplete: %v", corr)
	}
}

func TestPublicAPIBundledApps(t *testing.T) {
	names := fastfit.AppNames()
	if len(names) != 5 {
		t.Fatalf("bundled apps = %v", names)
	}
	if len(fastfit.Apps()) != 5 {
		t.Fatal("registry size mismatch")
	}
	if _, err := fastfit.LookupApp("bogus"); err == nil {
		t.Fatal("bogus app should error")
	}
}

func TestPublicAPIBareRuntime(t *testing.T) {
	res := fastfit.RunRanks(fastfit.RunOptions{NumRanks: 4, Seed: 1, Timeout: 5 * time.Second},
		func(r *fastfit.Rank) error {
			sum := r.AllreduceFloat64(float64(r.ID()), fastfit.OpSum, fastfit.CommWorld)
			if sum != 6 {
				r.Abort("bad sum")
			}
			if r.ID() == 0 {
				r.ReportResult(sum)
			}
			return nil
		})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].Values[0] != 6 {
		t.Fatalf("reported %v", res.Ranks[0].Values)
	}
}

func TestPublicAPISingleInjection(t *testing.T) {
	app, _ := fastfit.LookupApp("lu")
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32
	opts := fastfit.DefaultOptions()
	engine := fastfit.New(app, cfg, opts)
	points, err := engine.Points()
	if err != nil {
		t.Fatal(err)
	}
	var target fastfit.Point
	for _, p := range points {
		if p.Type.String() == "MPI_Allreduce" {
			target = p
			break
		}
	}
	pr := engine.InjectPointTarget(target, 0, 5, fastfit.TargetRecvBuf)
	if pr.Counts[fastfit.Success] != 5 {
		t.Fatalf("recvbuf injections should be benign: %v", pr.Counts)
	}
}
