// Package cliconf is the shared campaign-flag surface of the fastfit and
// ffd CLIs: one package defines the flags that describe a campaign (the
// workload, its scale, the injection options) and how they resolve into an
// engine configuration. Keeping the mapping in one place is what lets a
// distributed coordinator started with `ffd serve` host exactly the
// campaign the same flags would run in-process under `fastfit` — same
// flag names, same defaults, same fingerprint. The event-stream flags
// (-v, -progress, -events) those two share with ffexp live here too
// (observer.go).
package cliconf

import (
	"flag"
	"fmt"
	"strings"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
)

// Campaign holds the parsed shared campaign flags.
type Campaign struct {
	App        string
	Ranks      int
	Scale      int
	Iters      int
	Trials     int
	Seed       int64
	Adaptive   bool
	Confidence float64
	Threshold  float64
	Levels     int
	Policy     string
	Topology   string
	NetPlan    string
	Algorithm  string
	NoSemantic bool
	NoContext  bool
	NoML       bool
}

// campaignFlagNames is the exact set Register installs — kept adjacent so
// Explicit can tell campaign-describing flags from a command's own flags.
var campaignFlagNames = map[string]bool{
	"app": true, "ranks": true, "scale": true, "iters": true,
	"trials": true, "seed": true, "adaptive": true, "confidence": true,
	"threshold": true, "levels": true, "policy": true, "topology": true,
	"netplan": true, "algorithm": true,
	"no-semantic": true, "no-context": true, "no-ml": true,
}

// Explicit reports whether any campaign flag was set on the command line
// (fs must already be parsed). `ffd serve -store DIR` uses this to
// distinguish "serve this campaign" from "just reopen whatever the store
// holds" — defaults alone don't describe an intended campaign.
func (c *Campaign) Explicit(fs *flag.FlagSet) bool {
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if campaignFlagNames[f.Name] {
			explicit = true
		}
	})
	return explicit
}

// Register installs the shared campaign flags on fs and returns the struct
// they parse into. Flag names and defaults are the CLI contract — both
// fastfit and ffd register this exact set (mirrored in
// campaignFlagNames).
func Register(fs *flag.FlagSet) *Campaign {
	c := &Campaign{}
	fs.StringVar(&c.App, "app", "minimd", "workload to study ("+strings.Join(all.Names(), ", ")+")")
	fs.IntVar(&c.Ranks, "ranks", 0, "number of MPI ranks (0 = app default)")
	fs.IntVar(&c.Scale, "scale", 0, "problem-size knob (0 = app default)")
	fs.IntVar(&c.Iters, "iters", 0, "outer iterations (0 = app default)")
	fs.IntVar(&c.Trials, "trials", 100, "fault-injection tests per point")
	fs.Int64Var(&c.Seed, "seed", 1, "campaign seed")
	fs.BoolVar(&c.Adaptive, "adaptive", false, "adaptive trial budgets: stop a point early once its outcome settles, respend savings on uncertain points")
	fs.Float64Var(&c.Confidence, "confidence", 0.95, "settling-rule confidence for -adaptive (in (0,1))")
	fs.Float64Var(&c.Threshold, "threshold", 0.65, "ML prediction-accuracy threshold")
	fs.IntVar(&c.Levels, "levels", 4, "error-rate levels for the ML label")
	fs.StringVar(&c.Policy, "policy", "databuffer", "injection policy: databuffer, allparams or network")
	fs.StringVar(&c.Topology, "topology", "", "interconnect topology: flat, ring, torus or torus:XxY (empty = paper's reliable flat fabric)")
	fs.StringVar(&c.NetPlan, "netplan", "", "structured network fault plan applied to every injected run, e.g. \"link:1-2,drop:0-3:2,crash:5\"")
	fs.StringVar(&c.Algorithm, "algorithm", "", "resilient collective variant for registry-aware workloads (empty = baseline; see -app shoot)")
	fs.BoolVar(&c.NoSemantic, "no-semantic", false, "disable semantic-driven pruning")
	fs.BoolVar(&c.NoContext, "no-context", false, "disable context-driven pruning")
	fs.BoolVar(&c.NoML, "no-ml", false, "disable ML-driven pruning")
	return c
}

// Build resolves the parsed flags into the workload and the engine
// configuration (no Observer attached — callers layer their own).
func (c *Campaign) Build() (apps.App, apps.Config, core.Options, error) {
	app, err := all.Lookup(c.App)
	if err != nil {
		return nil, apps.Config{}, core.Options{}, err
	}
	cfg := app.DefaultConfig()
	if c.Ranks > 0 {
		cfg.Ranks = c.Ranks
	}
	if c.Scale > 0 {
		cfg.Scale = c.Scale
	}
	if c.Iters > 0 {
		cfg.Iters = c.Iters
	}
	cfg.Algorithm = c.Algorithm

	opts := core.DefaultOptions()
	opts.TrialsPerPoint = c.Trials
	opts.Seed = c.Seed
	opts.Adaptive.Enabled = c.Adaptive
	opts.Confidence = c.Confidence
	opts.AccuracyThreshold = c.Threshold
	opts.Levels = c.Levels
	opts.Pruning.Semantic = !c.NoSemantic
	opts.Pruning.Context = !c.NoContext
	opts.ML.Pruning = !c.NoML
	switch c.Policy {
	case "databuffer":
		opts.Policy = core.PolicyDataBuffer
	case "allparams":
		opts.Policy = core.PolicyAllParams
	case "network":
		opts.Policy = core.PolicyNetwork
	default:
		return nil, apps.Config{}, core.Options{}, fmt.Errorf("unknown policy %q", c.Policy)
	}
	opts.Topology = c.Topology
	if c.NetPlan != "" {
		plan, err := fault.ParseNetPlan(c.NetPlan)
		if err != nil {
			return nil, apps.Config{}, core.Options{}, err
		}
		opts.Network.Plan = plan
	}
	return app, cfg, opts, nil
}
