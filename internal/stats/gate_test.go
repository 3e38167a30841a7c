package stats

import (
	"math/rand"
	"testing"
)

func TestWilsonLowerBasics(t *testing.T) {
	if got := WilsonLower(5, 0, 0.95); got != 0 {
		t.Fatalf("WilsonLower with n=0 = %v, want 0", got)
	}
	if got := WilsonLower(0, 20, 0.95); got != 0 {
		t.Fatalf("WilsonLower with k=0 = %v, want 0", got)
	}
	// Unanimous evidence still has a lower bound strictly below 1 — the
	// property that makes a floor of 1.0 unreachable.
	for _, n := range []int{1, 5, 50, 5000} {
		if lo := WilsonLower(n, n, 0.95); lo >= 1 {
			t.Fatalf("WilsonLower(%d,%d) = %v, want < 1", n, n, lo)
		}
	}
	// More evidence tightens the bound.
	if WilsonLower(50, 50, 0.95) <= WilsonLower(5, 5, 0.95) {
		t.Fatal("50/50 should bound tighter than 5/5")
	}
}

// TestGateFalseConfidenceRate is the gate's analogue of the settling test's
// false-stop bound: across 1,000 seeded synthetic outcome streams whose true
// proportion sits exactly at the floor, the claim "proportion > floor" is
// wrong by construction in every stream, so the rate at which the gate
// declares confidence anyway must stay below the configured alpha.
func TestGateFalseConfidenceRate(t *testing.T) {
	const (
		streams    = 1000
		n          = 60
		confidence = 0.95
	)
	alpha := 1 - confidence
	for _, floor := range []float64{0.5, 0.7, 0.9} {
		wrong := 0
		for s := 0; s < streams; s++ {
			rng := rand.New(rand.NewSource(int64(s)*7919 + int64(floor*1000)))
			k := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < floor {
					k++
				}
			}
			if WilsonLower(k, n, confidence) > floor {
				wrong++
			}
		}
		rate := float64(wrong) / float64(streams)
		t.Logf("floor %.1f: %d/%d streams falsely confident (%.3f)", floor, wrong, streams, rate)
		if rate >= alpha {
			t.Errorf("floor %.1f: false-confidence rate %.3f (%d/%d) >= alpha %.2f",
				floor, rate, wrong, streams, alpha)
		}
	}
}
