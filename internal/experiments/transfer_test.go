package experiments

import (
	"strings"
	"testing"
)

// transferSeeds returns the seeds of the leave-one-app-out sweep. The full
// 20-seed sweep runs uninstrumented; under the race detector (or -short)
// only the seeds that actually serve confident predictions at the pinned
// gate run, so the agreement assertion stays non-vacuous without the cost.
func transferSeeds() []int64 {
	if raceEnabled || testing.Short() {
		return []int64{7, 11}
	}
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestTransferLeaveOneAppOut is the transfer-accuracy harness: it runs the
// Transfer generator (every workload held out in turn, a model trained on
// the remaining workloads' pooled campaign records, each confident
// zero-trial prediction scored against the held-out campaign's pooled
// dominant outcome) once per suite seed. The suite pins three properties:
// confident predictions agree with injection at or above the pinned floor,
// every wrong confident prediction is counted and surfaced in Notes (never
// silently absorbed), and the out-of-distribution workload (minimd, trained
// under a different fault policy) is never served at all.
func TestTransferLeaveOneAppOut(t *testing.T) {
	totalServed, totalWrong, oodServed := 0, 0, 0
	for _, seed := range transferSeeds() {
		sc := QuickScale()
		sc.Seed = seed
		r, err := Transfer(NewStore(sc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		served, wrong := int(r.Series["total"][1]), int(r.Series["total"][4])
		totalServed += served
		totalWrong += wrong
		oodServed += int(r.Series["minimd"][1])
		surfaced := 0
		for _, n := range r.Notes {
			if strings.HasPrefix(n, "wrong confident prediction: ") {
				surfaced++
				t.Logf("seed %d: %s", seed, n)
			}
		}
		if surfaced != wrong {
			t.Errorf("seed %d: %d wrong confident predictions counted but %d surfaced in Notes", seed, wrong, surfaced)
		}
	}
	if oodServed != 0 {
		t.Errorf("minimd was served %d predictions; its fault policy is outside every training envelope and must always fall back", oodServed)
	}
	if totalServed == 0 {
		t.Fatalf("no confident predictions served at gate %.2f across the suite; the agreement floor is vacuous", TransferGate)
	}
	totalAgree := totalServed - totalWrong
	agreement := float64(totalAgree) / float64(totalServed)
	t.Logf("transfer agreement: %d/%d = %.3f at gate %.2f (floor %.2f)",
		totalAgree, totalServed, agreement, TransferGate, TransferAgreementFloor)
	if agreement < TransferAgreementFloor {
		t.Errorf("confident-prediction agreement %.3f (%d/%d) below the pinned floor %.2f",
			agreement, totalAgree, totalServed, TransferAgreementFloor)
	}
}

// TestTransferExperiment pins the shape of the ffexp "transfer" generator:
// one row per workload plus a pooled total, the out-of-distribution row
// serving zero, and every wrong confident prediction surfaced in Notes.
func TestTransferExperiment(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("generator runs in the uninstrumented step")
	}
	st := NewStore(QuickScale())
	r, err := Run("transfer", st)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"total"}, AllApps...) {
		series, ok := r.Series[name]
		if !ok {
			t.Fatalf("missing series %q", name)
		}
		if len(series) != 5 {
			t.Fatalf("series %q has %d values, want 5 (subspaces, served, coverage, agreement, wrong)", name, len(series))
		}
	}
	if served := r.Series["minimd"][1]; served != 0 {
		t.Errorf("minimd served %v predictions; its fault policy must put it outside the support envelope", served)
	}
	if served := r.Series["total"][1]; served == 0 {
		t.Error("transfer experiment served nothing; the study is vacuous")
	}
	wrong := int(r.Series["total"][4])
	surfaced := 0
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "wrong confident prediction: ") {
			surfaced++
		}
	}
	if surfaced != wrong {
		t.Errorf("total counts %d wrong confident predictions but %d are surfaced in Notes", wrong, surfaced)
	}
	if !strings.Contains(r.Text, "zero-trial") {
		t.Errorf("report text lacks the zero-trial coverage line:\n%s", r.Text)
	}
}
