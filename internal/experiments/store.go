package experiments

import (
	"fmt"
	"sync"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
)

// NPBApps are the NAS Parallel Benchmark kernels of the paper's evaluation.
var NPBApps = []string{"is", "ft", "mg", "lu"}

// AllApps adds the LAMMPS stand-in.
var AllApps = []string{"is", "ft", "mg", "lu", "minimd"}

// Store lazily runs and caches the injection campaigns shared by multiple
// experiments, so regenerating every figure performs each expensive
// campaign exactly once.
type Store struct {
	Scale Scale
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Observer, when set, receives the typed event stream of every
	// campaign the store runs (each campaign opens with its own
	// CampaignStarted event, so stream consumers can tell them apart).
	Observer core.Observer

	mu        sync.Mutex
	campaigns map[string]*core.CampaignResult // by app name, "|mode"-suffixed for the variants
}

// NewStore builds a Store at the given scale.
func NewStore(scale Scale) *Store {
	return &Store{
		Scale:     scale,
		campaigns: map[string]*core.CampaignResult{},
	}
}

func (st *Store) logf(format string, args ...any) {
	if st.Logf != nil {
		st.Logf(format, args...)
	}
}

// AppConfig returns the application configuration used at the store's
// scale: the app's default sized for the store's rank count
// (apps.ConfigFor).
func (st *Store) AppConfig(name string) (apps.App, apps.Config, error) {
	app, err := all.Lookup(name)
	if err != nil {
		return nil, apps.Config{}, err
	}
	cfg, err := apps.ConfigFor(app, st.Scale.Ranks)
	return app, cfg, err
}

// Options returns the campaign options at the store's scale.
func (st *Store) Options() core.Options {
	opts := core.DefaultOptions()
	opts.TrialsPerPoint = st.Scale.TrialsPerPoint
	opts.Seed = st.Scale.Seed
	opts.Adaptive.Enabled = st.Scale.Adaptive
	opts.Confidence = st.Scale.Confidence
	opts.Observer = st.Observer
	return opts
}

// policyFor selects the injection policy the paper used per workload: the
// NPB campaigns report MPI-detected errors at rates only parameter faults
// produce (§II's basic methodology), while the LAMMPS campaign follows the
// §V-C data-buffer note.
func policyFor(app string) core.FaultPolicy {
	if app == "minimd" {
		return core.PolicyDataBuffer
	}
	return core.PolicyAllParams
}

// Engine returns a new engine whose campaign measures every pruned point
// (ML pruning off), the configuration behind the sensitivity figures.
// Engines of one app share its golden run, so a fresh one costs no second
// profile.
func (st *Store) Engine(name string) (*core.Engine, error) {
	return st.newEngine(name, false, st.Scale.Adaptive)
}

// cached returns the campaign stored under key, running it on the engine
// build returns — and caching the result — on a miss. what names the
// campaign in progress lines and errors. The lock is not held across the
// run, so two concurrent misses both run; the campaigns are deterministic,
// so either result is the result.
func (st *Store) cached(key, what string, build func() (*core.Engine, error)) (*core.CampaignResult, error) {
	st.mu.Lock()
	c, ok := st.campaigns[key]
	st.mu.Unlock()
	if ok {
		return c, nil
	}
	e, err := build()
	if err != nil {
		return nil, err
	}
	st.logf("running %s ...", what)
	c, err = e.RunCampaign()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	st.logf("%s", c.Summary())

	st.mu.Lock()
	st.campaigns[key] = c
	st.mu.Unlock()
	return c, nil
}

// newEngine builds an engine for an app at the store's scale under the
// paper's per-workload policy, with ML pruning and adaptive budgets as
// given.
func (st *Store) newEngine(name string, mlPruning, adaptive bool) (*core.Engine, error) {
	app, cfg, err := st.AppConfig(name)
	if err != nil {
		return nil, err
	}
	opts := st.Options()
	opts.Policy = policyFor(name)
	opts.ML.Pruning = mlPruning
	opts.Adaptive.Enabled = adaptive
	return core.New(app, cfg, opts), nil
}

// Campaign returns the cached full-measurement campaign for an app:
// semantic and context pruning applied, every surviving point injected
// with TrialsPerPoint tests under the data-buffer policy.
func (st *Store) Campaign(name string) (*core.CampaignResult, error) {
	return st.cached(name, "full-measurement campaign for "+name,
		func() (*core.Engine, error) { return st.Engine(name) })
}

// CampaignMode returns the full-measurement campaign for an app with
// adaptive trial budgets forced on or off, reusing the store's cache when
// the requested mode matches the store's scale and running (and caching) a
// separate campaign otherwise. The adaptive-vs-fixed ablation needs both
// modes side by side regardless of what the scale selects.
func (st *Store) CampaignMode(name string, adaptive bool) (*core.CampaignResult, error) {
	if adaptive == st.Scale.Adaptive {
		return st.Campaign(name)
	}
	mode := "fixed"
	if adaptive {
		mode = "adaptive"
	}
	return st.cached(name+"|"+mode, mode+"-budget campaign for "+name,
		func() (*core.Engine, error) { return st.newEngine(name, false, adaptive) })
}

// MLCampaign returns the cached ML-pruned campaign for an app (the paper
// applies the ML technique to LAMMPS).
func (st *Store) MLCampaign(name string) (*core.CampaignResult, error) {
	return st.cached(name+"|ml", "ML-pruned campaign for "+name,
		func() (*core.Engine, error) { return st.newEngine(name, true, st.Scale.Adaptive) })
}

// pruned returns the campaign that injects what every pruning technique
// applied to an app leaves of its space, the campaign its total reduction
// and injected count are read from: following the paper, ML-driven pruning
// is applied to the LAMMPS stand-in only — the NPB spaces are already
// small after semantic and context pruning.
func (st *Store) pruned(name string) (*core.CampaignResult, error) {
	if name == "minimd" {
		return st.MLCampaign(name)
	}
	return st.Campaign(name)
}

// MeasuredAcross concatenates the measured point results of the given
// apps' full campaigns.
func (st *Store) MeasuredAcross(names []string) ([]core.PointResult, error) {
	var out []core.PointResult
	for _, n := range names {
		c, err := st.Campaign(n)
		if err != nil {
			return nil, err
		}
		out = append(out, c.Measured...)
	}
	return out, nil
}
