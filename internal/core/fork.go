package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

// Fork-at-injection-site trial execution. Every trial of a point injects at
// the same (rank, site, invocation) prefix, so everything a trial simulates
// before the faulted call is byte-identical to the golden run. The engine
// records the golden run itself — the one fault-free run that also yields
// the profile and the reference results (mpi.RunOptions.Record) — cuts a
// causally consistent snapshot per distinct injection prefix (mpi.Trace.Fork)
// and runs trials from the snapshot: pre-cut communication is served from the
// tape while the app's compute executes live, which skips the pre-injection
// collective schedule entirely. FastFI (PAPERS.md) derives its
// order-of-magnitude speedup from the same fork-from-snapshot idea.
//
// Falling back to full replay is always correct and happens whenever a trial
// is not forkable: multi-fault runs, network fault-domain campaigns
// (topologies and plans perturb delivery before the injection site), traces
// the recorder poisoned (wildcard receives, derived communicators, ...), or
// prefixes whose faulted call never appears on the tape. The execution-mode
// matrix (equivalence_test.go) pins that both paths classify identically, so
// outcomes stay pure functions of (seed, plan, algorithm) either way.

// goldenRun is a workload's one fault-free run: its profile, its results
// and their digest, and its tape (res.Trace; unforkable, with a Reason, when
// the recorder refused it) with the forks cut from it, one per injection
// prefix (nil entries cache "this prefix has no snapshot").
type goldenRun struct {
	once   sync.Once // runs it; err is set when it failed or hung
	err    error
	prof   *profile.Profile
	res    mpi.RunResult
	digest *classify.Digest

	mu    sync.Mutex
	forks map[forkKey]*mpi.Fork
}

// forkKey identifies one distinct injection prefix: all trials of a point
// share it, so one snapshot serves the whole trial budget.
type forkKey struct {
	rank int
	site uintptr
	inv  int
}

const (
	goldenCacheCap = 8    // fingerprints resident; one more evicts an arbitrary older entry
	forkCap        = 4096 // snapshots per golden run, far above any campaign's point count
)

// goldens shares golden runs across engines of one workload fingerprint, so
// a sweep that builds one engine per campaign (ffexp's figures, ffd's
// coordinator and shards, resumed supervisors) runs the application
// fault-free once. Fingerprints cover app identity and the full
// apps.Config, so workloads never share a reference or a snapshot.
var goldens = struct {
	sync.Mutex
	m map[string]*goldenRun
}{m: map[string]*goldenRun{}}

// forkFingerprint keys the golden-run cache. Any Config field changes the
// simulated communication schedule, so all of them participate.
func (e *Engine) forkFingerprint() string {
	return fmt.Sprintf("%s|ranks=%d|scale=%d|iters=%d|seed=%d|alg=%s",
		e.app.Name(), e.cfg.Ranks, e.cfg.Scale, e.cfg.Iters, e.cfg.Seed, e.cfg.Algorithm)
}

// loadGolden returns the engine's golden run. On a miss in the shared cache
// one engine runs the application while the others of the fingerprint wait
// for that run; a run that fails or hangs is an error and leaves the cache.
// The reference engine runs its own, uncached.
func (e *Engine) loadGolden() (*goldenRun, error) {
	if g := e.gold.Load(); g != nil {
		return g, nil
	}
	if err := e.netSetup(); err != nil {
		return nil, fmt.Errorf("network fault domain of %s: %w", e.app.Name(), err)
	}
	fp, g := e.forkFingerprint(), &goldenRun{}
	if !e.reference {
		goldens.Lock()
		if cached := goldens.m[fp]; cached != nil {
			g = cached
		} else {
			for k := range goldens.m {
				if len(goldens.m) < goldenCacheCap {
					break
				}
				delete(goldens.m, k)
			}
			goldens.m[fp] = g
		}
		goldens.Unlock()
	}
	g.once.Do(func() {
		if g.err = e.runGolden(g); g.err != nil && !e.reference {
			goldens.Lock()
			if goldens.m[fp] == g {
				delete(goldens.m, fp)
			}
			goldens.Unlock()
		}
	})
	if g.err != nil {
		return nil, g.err
	}
	e.gold.CompareAndSwap(nil, g)
	return e.gold.Load(), nil
}

// runGolden runs the application fault-free with the profile collector
// hooked and the tape recorder attached, and fills g from the run.
func (e *Engine) runGolden(g *goldenRun) error {
	col := profile.NewCollector(e.cfg.Ranks)
	res := e.exec(mpi.RunOptions{Hook: col, Record: true})
	if err := res.FirstError(); err != nil {
		return fmt.Errorf("profiling run of %s failed: %w", e.app.Name(), err)
	}
	if res.Deadlock || res.TimedOut {
		return fmt.Errorf("profiling run of %s hung (deadlock=%v timeout=%v)", e.app.Name(), res.Deadlock, res.TimedOut)
	}
	g.prof, g.res, g.forks = col.Finish(), res, map[forkKey]*mpi.Fork{}
	g.digest = classify.NewDigest(res, classify.DefaultTolerance)
	return nil
}

// fork returns the snapshot for one injection prefix, cutting and caching it
// on first use; nil when the trace is unforkable or has no such prefix.
func (g *goldenRun) fork(key forkKey) *mpi.Fork {
	g.mu.Lock()
	defer g.mu.Unlock()
	fk, ok := g.forks[key]
	if !ok {
		if len(g.forks) >= forkCap {
			return nil // cap reached: over-cap prefixes fall back to full replay
		}
		fk = g.res.Trace.Fork(key.rank, key.site, key.inv)
		g.forks[key] = fk
	}
	return fk
}

// trialFork returns the snapshot one trial forks from, or nil when the
// trial must replay in full, and keeps the campaign's snapshot accounting
// (SnapshotStats). Forking does not apply to a point-to-point fault (the
// tape is cut at collectives), under Fork.Disable, on the reference engine
// or with a network fault domain (its plans perturb delivery before the
// injection site). Where it applies but the recorder refused the tape, every
// trial pays its full prefix, so the engine says so once, with the cause.
func (e *Engine) trialFork(g *goldenRun, f fault.Fault) *mpi.Fork {
	if f.Target.IsNet() || f.Target.IsP2P() || e.opts.Fork.Disable || e.reference || e.netSetup() != nil || e.topo != nil {
		return nil
	}
	if !g.res.Trace.Forkable() {
		e.noteOnce.Do(func() {
			e.logf("no snapshot store for %s: %s; every trial replays from t=0", e.forkFingerprint(), g.res.Trace.Reason())
		})
		return nil
	}
	key := forkKey{rank: f.Rank, site: f.Site, inv: f.Invocation}
	fk := g.fork(key)
	if fk != nil {
		e.stats.noteSnapshot(key)
	}
	return fk
}

// trialHow is how a trial came by its outcome. SnapshotStats reports the
// three-way partition forked / replayed / memoised, the forked trials that
// reconverged as a count inside the first, and those cut at a checkpoint as
// a count inside that.
type trialHow uint8

const (
	howForked       trialHow = iota // executed from a prefix snapshot, to the end
	howReconverged                  // executed from a prefix snapshot, ended at the faulted call
	howAtCheckpoint                 // executed from a prefix snapshot, ended at a later checkpoint
	howReplayed                     // executed by full replay from t=0
	howMemoised                     // copied from the point's first trial of the same effective fault
	numTrialHow
)

// snapshotStats is the engine's fork accounting, reset when a campaign's
// event stream opens and published as one SnapshotStats event right before
// CampaignFinished. Snapshots counts the distinct prefixes this campaign
// forked from — not cache misses, which would make the stream depend on
// whether an earlier campaign in the process warmed the shared cache.
type snapshotStats struct {
	trials [numTrialHow]atomic.Int64 // trials by how their outcome was obtained

	mu   sync.Mutex
	used map[forkKey]struct{} // distinct prefixes forked from
}

// count books trials, one per element of how.
func (s *snapshotStats) count(how ...trialHow) {
	for _, h := range how {
		s.trials[h].Add(1)
	}
}

func (s *snapshotStats) reset() {
	for h := range s.trials {
		s.trials[h].Store(0)
	}
	s.mu.Lock()
	s.used = nil
	s.mu.Unlock()
}

func (s *snapshotStats) noteSnapshot(key forkKey) {
	s.mu.Lock()
	if s.used == nil {
		s.used = make(map[forkKey]struct{})
	}
	s.used[key] = struct{}{}
	s.mu.Unlock()
}

// SnapshotStats returns the engine's current fork accounting — the same
// values the SnapshotStats event carries at campaign end. Useful for tools
// (bench/ffbench) that report fork effectiveness without observing a stream.
func (e *Engine) SnapshotStats() SnapshotStats { return e.stats.snapshot() }

// snapshot renders the accounting as its stream event.
func (s *snapshotStats) snapshot() SnapshotStats {
	s.mu.Lock()
	used := len(s.used)
	s.mu.Unlock()
	atCk := int(s.trials[howAtCheckpoint].Load())
	cut := int(s.trials[howReconverged].Load()) + atCk
	return SnapshotStats{
		Snapshots:    used,
		Forked:       int(s.trials[howForked].Load()) + cut,
		Replayed:     int(s.trials[howReplayed].Load()),
		Memoised:     int(s.trials[howMemoised].Load()),
		Reconverged:  cut,
		AtCheckpoint: atCk,
	}
}
