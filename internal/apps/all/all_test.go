package all

import (
	"errors"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// runApp executes one workload fault-free and returns the result.
func runApp(t *testing.T, a apps.App, cfg apps.Config) mpi.RunResult {
	t.Helper()
	return mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Timeout: 20 * time.Second},
		func(r *mpi.Rank) error { return a.Main(r, cfg) })
}

func TestAllAppsRunCleanAtDefaultConfig(t *testing.T) {
	for name, a := range Registry() {
		name, a := name, a
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := a.DefaultConfig()
			res := runApp(t, a, cfg)
			if err := res.FirstError(); err != nil {
				t.Fatalf("%s failed: %v", name, err)
			}
			if res.Deadlock || res.TimedOut {
				t.Fatalf("%s deadlock=%v timeout=%v", name, res.Deadlock, res.TimedOut)
			}
			// The root rank must report the program's printed output so a
			// golden comparison is possible.
			if len(res.Ranks[0].Values) == 0 {
				t.Fatalf("%s rank 0 reported no results (golden comparison impossible)", name)
			}
		})
	}
}

func TestAllAppsAreDeterministic(t *testing.T) {
	for name, a := range Registry() {
		name, a := name, a
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := a.DefaultConfig()
			r1 := runApp(t, a, cfg)
			r2 := runApp(t, a, cfg)
			for i := range r1.Ranks {
				v1, v2 := r1.Ranks[i].Values, r2.Ranks[i].Values
				if len(v1) != len(v2) {
					t.Fatalf("%s rank %d: value count differs", name, i)
				}
				for j := range v1 {
					if v1[j] != v2[j] {
						t.Fatalf("%s rank %d value %d: %v != %v", name, i, j, v1[j], v2[j])
					}
				}
			}
		})
	}
}

func TestAllAppsRunAtSmallRankCounts(t *testing.T) {
	for name, a := range Registry() {
		name, a := name, a
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, ranks := range []int{8, 32} {
				cfg, err := apps.ConfigFor(a, ranks)
				if err != nil {
					t.Fatal(err)
				}
				res := runApp(t, a, cfg)
				if err := res.FirstError(); err != nil {
					t.Fatalf("%s failed at %d ranks, scale %d: %v", name, ranks, cfg.Scale, err)
				}
			}
		})
	}
}

// TestConfigFor pins the size ConfigFor gives each app at the paper's rank
// counts, and its refusal of a rank count no doubling of the size fits.
func TestConfigFor(t *testing.T) {
	want := map[string][3]int{ // scale at 8, 16 and 32 ranks
		"ft": {16, 16, 32}, "mg": {32, 32, 64}, "lu": {64, 64, 64},
		"is": {512, 512, 512}, "minimd": {24, 24, 24},
	}
	for name, a := range Registry() {
		if err := apps.Check(a, a.DefaultConfig()); err != nil {
			t.Errorf("%s refuses its DefaultConfig: %v", name, err)
		}
		for i, ranks := range []int{8, 16, 32} {
			cfg, err := apps.ConfigFor(a, ranks)
			if err != nil || cfg.Ranks != ranks || cfg.Scale != want[name][i] {
				t.Errorf("ConfigFor(%s, %d) = %+v, %v; want scale %d", name, ranks, cfg, err, want[name][i])
			}
		}
	}
	mg, _ := Lookup("mg")
	if _, err := apps.ConfigFor(mg, 6); !errors.Is(err, apps.ErrRefused) {
		t.Errorf("ConfigFor(mg, 6) = %v, want a refusal", err)
	}
	lu, _ := Lookup("lu")
	if cfg, err := apps.ConfigFor(lu, 128); err != nil || cfg.Scale != 128 {
		t.Errorf("ConfigFor(lu, 128) = %+v, %v; want scale 128", cfg, err)
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("minimd"); err != nil {
		t.Fatalf("lookup minimd: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatalf("lookup nope should fail")
	}
	if len(Names()) != 5 {
		t.Fatalf("expected 5 apps, got %v", Names())
	}
}
