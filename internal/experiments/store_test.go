package experiments

import (
	"testing"

	"github.com/fastfit/fastfit/internal/core"
)

func TestAppConfigHonoursDivisibilityConstraints(t *testing.T) {
	want := map[string][3]int{ // scale at 8, 16 and 32 ranks
		"is": {512, 512, 512}, "ft": {16, 16, 32}, "mg": {32, 32, 64},
		"lu": {64, 64, 64}, "minimd": {24, 24, 24},
	}
	for i, ranks := range []int{8, 16, 32} {
		st := NewStore(Scale{Name: "t", Ranks: ranks, TrialsPerPoint: 1, Seed: 1})
		for _, name := range AllApps {
			_, cfg, err := st.AppConfig(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cfg.Ranks != ranks {
				t.Errorf("%s ranks = %d", name, cfg.Ranks)
			}
			if cfg.Scale != want[name][i] {
				t.Errorf("%s scale = %d at %d ranks, want %d", name, cfg.Scale, ranks, want[name][i])
			}
			switch name {
			case "ft":
				if cfg.Scale%cfg.Ranks != 0 || cfg.Scale&(cfg.Scale-1) != 0 {
					t.Errorf("ft scale %d violates constraints at %d ranks", cfg.Scale, ranks)
				}
			case "mg":
				if cfg.Scale%(2*cfg.Ranks) != 0 {
					t.Errorf("mg scale %d violates constraints at %d ranks", cfg.Scale, ranks)
				}
			case "lu":
				if cfg.Scale%cfg.Ranks != 0 {
					t.Errorf("lu scale %d violates constraints at %d ranks", cfg.Scale, ranks)
				}
			}
		}
	}
}

func TestAppConfigUnknownApp(t *testing.T) {
	st := NewStore(QuickScale())
	if _, _, err := st.AppConfig("nope"); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestPolicySplitMatchesThePaper(t *testing.T) {
	// NPB figures use the all-parameter policy, the LAMMPS stand-in the
	// data-buffer policy (see DESIGN.md, "Fault-policy interpretation").
	for _, name := range NPBApps {
		if policyFor(name) != core.PolicyAllParams {
			t.Errorf("%s policy = %v", name, policyFor(name))
		}
	}
	if policyFor("minimd") != core.PolicyDataBuffer {
		t.Errorf("minimd policy = %v", policyFor("minimd"))
	}
}

func TestStoreOptionsPropagateScale(t *testing.T) {
	st := NewStore(Scale{Name: "t", Ranks: 8, TrialsPerPoint: 33, Seed: 42})
	opts := st.Options()
	if opts.TrialsPerPoint != 33 || opts.Seed != 42 {
		t.Fatalf("options = %+v", opts)
	}
}
