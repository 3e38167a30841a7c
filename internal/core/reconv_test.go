package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/mpi"
)

// A forked trial whose ranks all leave the faulted collective holding the
// golden run's result, or all reach a later checkpoint in the golden run's
// state, is ended there and handed the golden run's ranks (mpi/fork.go,
// part 3; mpi/checkpoint.go, part 6). Like the memo, the cuts have no off
// switch to diff against on the same engine, so the oracle is an engine
// that cannot cut at all: Fork.Disable replays every trial from t=0 to its
// end.

// ranksText renders what a run reported, rank by rank, with float64 values
// as their bits.
func ranksText(res mpi.RunResult) string {
	var sb strings.Builder
	for _, rr := range res.Ranks {
		fmt.Fprintf(&sb, "rank %d err=%v values=", rr.Rank, rr.Err)
		for _, v := range rr.Values {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// keepsFlipApp is the workload the bundled ones are not: it passes buffers
// and a count vector it owns, never refills them, and reports them. Ranks
// below the last never hold a maximum, so a flip in their send buffer leaves
// every rank's result golden and still changes the run — the case the
// faulted rank's snapshot exists for. (is also passes its own buffers, but
// releases them straight after the call: dropping the snapshot check from
// the cut changes none of its verdicts, and all of this application's.)
type keepsFlipApp struct{}

func (keepsFlipApp) Name() string               { return "keeps-flip" }
func (keepsFlipApp) DefaultConfig() apps.Config { return apps.Config{Ranks: 4, Iters: 2, Seed: 1} }
func (keepsFlipApp) Main(r *mpi.Rank, cfg apps.Config) error {
	me, n := r.ID(), r.NumRanks()
	r.SetPhase(mpi.PhaseCompute)
	send, recv := r.NewFloat64Buffer(4), r.NewFloat64Buffer(4*n)
	for i := 0; i < 4; i++ {
		send.SetFloat64(i, float64((me+1)*(i+1))+float64(cfg.Seed%7)/8)
	}
	counts, displs := make([]int32, n), make([]int32, n)
	for p := range counts {
		counts[p], displs[p] = 4, int32(4*p)
	}
	for iter := 0; iter < cfg.Iters; iter++ {
		r.Tick(100)
		r.Allreduce(send, recv, 4, mpi.Float64, mpi.OpMax, mpi.CommWorld)
		for i := 0; i < 4; i++ {
			send.SetFloat64(i, 0.5*send.Float64(i)+0.25*recv.Float64(i))
		}
		r.Gatherv(send, 4, recv, counts, displs, mpi.Float64, iter%n, mpi.CommWorld)
	}
	r.ReportResult(send.Float64s()...)
	r.ReportResult(recv.Float64s()...)
	for _, c := range counts {
		r.ReportResult(float64(c))
	}
	return nil
}

// TestReconvOracle runs campaigns of the three wrapper-based applications,
// of is, which passes its own buffers and count vectors to Allreduce and
// Alltoall[v], and of keepsFlipApp, under both policies, and requires of
// every recorded trial that running its fault to the end gives the recorded
// outcome. It recounts
// Reconverged and AtCheckpoint from the recorded trials alone — one
// execution per effective fault, asked whether and where it was cut — and
// requires every cut trial, at the call or at a checkpoint, to be a SUCCESS
// that runs to the golden run's values, and the three halo applications to
// have cut something at each.
func TestReconvOracle(t *testing.T) {
	seeds := int64(3)
	if raceEnabled || testing.Short() {
		seeds = 1
	}
	for _, app := range []apps.App{lu.New(), mg.New(), minimd.New(), is.New(), keepsFlipApp{}} {
		cutByApp, atCkByApp := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			for _, mode := range []string{"allparams", "databuffer-adaptive"} {
				opts := diffTestOptions(seed)
				opts.TrialsPerPoint = 16
				if mode == "allparams" {
					opts.Policy = PolicyAllParams
				} else {
					opts.Adaptive.Enabled = true
				}
				leg := fmt.Sprintf("%s/seed=%d/%s", app.Name(), seed, mode)
				e := appDigestEngine(app, seed, opts)
				res, err := e.RunCampaign()
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				st := e.SnapshotStats()

				off := opts
				off.Fork.Disable = true
				full := appDigestEngine(app, seed, off)
				if _, err := full.Profile(); err != nil {
					t.Fatalf("%s: %v", leg, err)
				}

				recount, atCk := 0, 0
				for _, pr := range res.Measured {
					w, ok := e.gold.Load().prof.Widths(pr.Point.Rank, pr.Point.Site, pr.Point.Invocation)
					if !ok {
						t.Fatalf("%s: no widths recorded for %s", leg, pr.Point.String())
					}
					seen := map[effectiveFault]bool{}
					for i, tr := range pr.Trials {
						f := recordedFault(pr.Point, tr)
						got, run := full.RunOnce(f)
						if run.Reconverged {
							t.Fatalf("%s: a Fork.Disable engine cut a run", leg)
						}
						if got != tr.Outcome {
							t.Errorf("%s: %s trial %d (%v bit %d): campaign recorded %v, running the fault to the end gives %v",
								leg, pr.Point.String(), i, tr.Target, tr.Bit, tr.Outcome, got)
						}
						k := effectiveFault{tr.Target, w.EffectiveBit(tr.Target, tr.Bit)}
						if seen[k] {
							continue // memoised in the campaign: executed nothing, cut nothing
						}
						seen[k] = true
						if _, cut := e.RunOnce(f); cut.Reconverged {
							recount++
							if cut.Provenance == mpi.ReconvergedAtCheckpoint {
								atCk++
							}
							if tr.Outcome != classify.Success {
								t.Errorf("%s: %s trial %d (%v bit %d) is cut but recorded %v", leg, pr.Point.String(), i, tr.Target, tr.Bit, tr.Outcome)
							}
							// SUCCESS tolerates small differences; the cut's claim
							// is stronger: run to the end, the trial reports the
							// golden run's values bit for bit.
							if want, got := ranksText(e.Golden()), ranksText(run); got != want {
								t.Errorf("%s: %s trial %d (%v bit %d) is cut, but run to the end it is not the golden run:\n%s\ngolden:\n%s",
									leg, pr.Point.String(), i, tr.Target, tr.Bit, got, want)
							}
						}
					}
				}
				if st.Reconverged != recount || st.AtCheckpoint != atCk || st.Reconverged > st.Forked {
					t.Errorf("%s: accounting %+v, recount of cut trials %d, %d at a checkpoint", leg, st, recount, atCk)
				}
				if fs := full.SnapshotStats(); fs.Forked != 0 || fs.Reconverged != 0 {
					t.Errorf("%s: the oracle engine forked: %+v", leg, fs)
				}
				cutByApp += recount
				atCkByApp += atCk
			}
		}
		switch app.Name() {
		case "lu", "mg", "minimd":
			if cutByApp == atCkByApp || atCkByApp == 0 {
				t.Errorf("%s: %d trials cut, %d at a checkpoint; the oracle compared too little of one cut", app.Name(), cutByApp, atCkByApp)
			}
		case "keeps-flip":
			if cutByApp == 0 {
				t.Errorf("%s: no trial was cut; the oracle compared nothing the cut produced", app.Name())
			}
		}
		t.Logf("%s: %d trials cut, %d of them at a checkpoint", app.Name(), cutByApp, atCkByApp)
	}
}
