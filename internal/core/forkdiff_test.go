package core

import (
	"testing"
)

// TestForkFallbackNetworkPlan pins the fallback path: a campaign with a
// standing topology and fault plan must replay every trial from t=0 (the
// plan perturbs delivery before the injection site, so prefixes are
// unsnapshottable) while still completing normally.
func TestForkFallbackNetworkPlan(t *testing.T) {
	opts := netDiffOptions(t, 1)
	eng := netDiffEngine(t, opts, "baseline")
	res, err := eng.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) == 0 {
		t.Fatal("networked campaign measured nothing; the fallback was not exercised")
	}
	st := eng.SnapshotStats()
	if st.Forked != 0 || st.Snapshots != 0 {
		t.Fatalf("networked campaign forked despite the fault plan: %+v", st)
	}
	if st.Replayed == 0 {
		t.Fatalf("networked campaign ran no full-replay trials: %+v", st)
	}
}

// TestForkCacheCrossFingerprint pins cache isolation: engines whose
// workload fingerprints differ (here, by config seed) must resolve distinct
// golden runs, so a reference or a snapshot cut for one configuration can
// never serve trials of another.
func TestForkCacheCrossFingerprint(t *testing.T) {
	// Earlier tests leave the process-wide cache near goldenCacheCap, where
	// inserting one more fingerprint evicts an arbitrary entry — possibly
	// one of this test's own. Start from an empty cache so the sharing
	// assertions below are deterministic.
	resetGoldens()

	optsA, optsB := diffTestOptions(101), diffTestOptions(102)
	ea, eb := diffTestEngine(t, optsA), diffTestEngine(t, optsB)
	ea2 := diffTestEngine(t, optsA) // same fingerprint as ea
	if ea.forkFingerprint() == eb.forkFingerprint() {
		t.Fatalf("distinct configs share a fingerprint: %s", ea.forkFingerprint())
	}
	if ea.forkFingerprint() != ea2.forkFingerprint() {
		t.Fatalf("identical configs disagree on fingerprint: %s vs %s",
			ea.forkFingerprint(), ea2.forkFingerprint())
	}
	ga, gb, ga2 := mustLoadGolden(t, ea), mustLoadGolden(t, eb), mustLoadGolden(t, ea2)
	if !ga.res.Trace.Forkable() || !gb.res.Trace.Forkable() {
		t.Fatalf("no snapshot store for a forkable workload: %q %q", ga.res.Trace.Reason(), gb.res.Trace.Reason())
	}
	if ga == gb {
		t.Fatal("engines with different fingerprints share one golden run")
	}
	if ga != ga2 {
		t.Fatal("engines with the same fingerprint did not share the golden run")
	}
	if ga.res.Trace == gb.res.Trace {
		t.Fatal("distinct fingerprints share one recorded trace")
	}
}
