package core

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/classify"
)

// loadTestDuration is how long TestLoadedTrialVerdict loops: one second by
// default (a smoke), FASTFIT_LOAD_SECONDS seconds when CI or a developer
// runs it as the load harness beside CPU-spinner processes.
func loadTestDuration(t *testing.T) time.Duration {
	s := os.Getenv("FASTFIT_LOAD_SECONDS")
	if s == "" {
		return time.Second
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("FASTFIT_LOAD_SECONDS=%q: want a positive number of seconds", s)
	}
	return time.Duration(n) * time.Second
}

// TestLoadedTrialVerdict is the load harness for the one trial that used to
// flip under load: is, 4 ranks, scale 32, seed 4, point 0, trial 1. Rank 0's
// iteration count is corrupted, so the run makes 129 iterations of three
// collectives — thousands of receiver wake-ups — before rank 0 segfaults.
// It is a live run from start to crash, and every repetition must say so:
// SEG_FAULT, never a deadlock verdict reached by watching the clock. Two
// repetitions run at a time, so ranks outnumber cores on a small box; the
// load that exposed the flip is separate OS processes spinning beside the
// test (see CI and the verify skill), which this test does not start.
func TestLoadedTrialVerdict(t *testing.T) {
	eng := diffTestEngine(t, diffTestOptions(4))
	plan, err := eng.planCampaign()
	if err != nil {
		t.Fatal(err)
	}
	f := eng.pointSeq(plan.order[0], 0, nil).draw(newRand(eng.trialSeed(0, 1)))

	deadline := time.Now().Add(loadTestDuration(t))
	var wg sync.WaitGroup
	runs := make([]int, 2)
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && !t.Failed() {
				outcome, res := eng.RunOnceCtx(context.Background(), f)
				runs[g]++
				if outcome != classify.SegFault || res.Deadlock || res.TimedOut {
					t.Errorf("run %d of leg %d: outcome %v, Deadlock %v, TimedOut %v (%v); want SEG_FAULT from a live run",
						runs[g], g, outcome, res.Deadlock, res.TimedOut, res.FirstError())
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d runs of the trial", runs[0]+runs[1])
}
