package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Fork-at-injection-site trial execution. Every trial of a point injects at
// the same (rank, site, invocation) prefix, so everything a trial simulates
// before the faulted call is byte-identical to the golden run. The engine
// records one extra golden run per workload (mpi.RunOptions.Record), cuts a
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
// prefixes whose faulted call never appears on the tape. The forked≡replayed
// differential suite pins that both paths classify identically, so outcomes
// stay pure functions of (seed, plan, algorithm) either way.

// forkKey identifies one distinct injection prefix: all trials of a point
// share it, so one snapshot serves the whole trial budget.
type forkKey struct {
	rank int
	site uintptr
	inv  int
}

// forkState is the snapshot store of one workload fingerprint: the recorded
// golden trace plus the forks cut from it, one per injection prefix. A nil
// trace means "no snapshot store" — every trial replays in full — and
// reason says why; nil fork entries cache "this prefix has no snapshot".
type forkState struct {
	trace  *mpi.Trace
	reason string // why trace is nil

	mu    sync.Mutex
	forks map[forkKey]*mpi.Fork
}

// fork returns the snapshot for one injection prefix, cutting and caching it
// on first use.
func (st *forkState) fork(key forkKey) *mpi.Fork {
	if st == nil || st.trace == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	fk, ok := st.forks[key]
	if !ok {
		if len(st.forks) >= forkStateCap {
			return nil // cap reached: over-cap prefixes fall back to full replay
		}
		fk = st.trace.Fork(key.rank, key.site, key.inv)
		st.forks[key] = fk
	}
	return fk
}

const (
	// forkCacheCap bounds the workload fingerprints whose traces stay
	// resident; campaigns beyond it evict an arbitrary older entry.
	forkCacheCap = 8
	// forkStateCap bounds the snapshots cut per fingerprint. Campaign point
	// counts sit far below it; it exists so a pathological sweep cannot hold
	// an unbounded number of cut/prestock slices.
	forkStateCap = 4096
)

// forkCache shares snapshot stores across engines of the same workload
// fingerprint, so a sweep that builds one engine per campaign (ffexp,
// resumed supervisors) records the golden tape once, not once per campaign.
// Fingerprints cover everything the tape depends on — app identity and the
// full apps.Config — so cross-fingerprint campaigns never share snapshots.
var forkCache = struct {
	sync.Mutex
	m map[string]*forkState
}{m: map[string]*forkState{}}

// forkFingerprint keys the shared snapshot cache. Any Config field changes
// the simulated communication schedule, so all of them participate.
func (e *Engine) forkFingerprint() string {
	return fmt.Sprintf("%s|ranks=%d|scale=%d|iters=%d|seed=%d|alg=%s",
		e.app.Name(), e.cfg.Ranks, e.cfg.Scale, e.cfg.Iters, e.cfg.Seed, e.cfg.Algorithm)
}

// forkSetup resolves the engine's snapshot store once: it consults the
// shared cache and, on a miss, records one extra golden run with the tape
// recorder attached. Nil when forking is disabled or the campaign has a
// network fault domain (those plans perturb delivery before the injection
// site, so prefixes are unsnapshottable and every trial replays in full).
//
// A recording that yields no usable tape costs every trial its full prefix,
// so it is never silent: the engine emits one Note with the cause. Only a
// cause that is a property of the application (the recorder poisoned the
// tape: wildcard receives, derived communicators, ...) is cached under the
// fingerprint. A recording run that merely did not finish — an error, a
// timeout, a deadlock verdict, on a workload whose profiling run had just
// finished cleanly — says nothing about the next attempt, so the next engine
// of the fingerprint records again.
func (e *Engine) forkSetup() *forkState {
	e.forkOnce.Do(func() {
		if e.opts.Fork.Disable || e.netSetup() != nil || e.topo != nil {
			return
		}
		fp := e.forkFingerprint()
		forkCache.Lock()
		st, ok := forkCache.m[fp]
		forkCache.Unlock()
		if !ok {
			var keep bool
			if st, keep = e.recordTape(); keep {
				forkCache.Lock()
				if len(forkCache.m) >= forkCacheCap {
					for k := range forkCache.m {
						delete(forkCache.m, k)
						break
					}
				}
				forkCache.m[fp] = st
				forkCache.Unlock()
			}
		}
		if st.trace == nil {
			e.logf("no snapshot store for %s: %s; every trial replays from t=0", fp, st.reason)
		}
		e.forkSt = st
	})
	return e.forkSt
}

// recordTape runs the application once more, fault-free, with the tape
// recorder attached. keep reports whether the result holds for every later
// engine of the fingerprint (a tape, or a refusal the application caused)
// or only for this attempt (the run did not finish).
func (e *Engine) recordTape() (st *forkState, keep bool) {
	res := e.exec(mpi.RunOptions{Record: true})
	st = &forkState{forks: map[forkKey]*mpi.Fork{}}
	switch err := res.FirstError(); {
	case err != nil:
		st.reason = fmt.Sprintf("the recording run failed: %v", err)
	case res.TimedOut || res.Deadlock:
		st.reason = fmt.Sprintf("the recording run hung (deadlock=%v timeout=%v)", res.Deadlock, res.TimedOut)
	case !res.Trace.Forkable():
		st.reason, keep = res.Trace.Reason(), true
	default:
		st.trace, keep = res.Trace, true
	}
	return st, keep
}

// trialFork returns the snapshot one trial forks from, or nil when the
// trial must replay in full. It also maintains the campaign's snapshot
// accounting (SnapshotStats).
func (e *Engine) trialFork(f fault.Fault) *mpi.Fork {
	if f.Target.IsNet() {
		return nil
	}
	key := forkKey{rank: f.Rank, site: f.Site, inv: f.Invocation}
	fk := e.forkSetup().fork(key)
	if fk != nil {
		e.stats.noteSnapshot(key)
	}
	return fk
}

// trialHow is how a trial came by its outcome. SnapshotStats reports the
// three-way partition forked / replayed / memoised, and the forked trials
// that reconverged as a count inside the first.
type trialHow uint8

const (
	howForked      trialHow = iota // executed from a prefix snapshot, to the end
	howReconverged                 // executed from a prefix snapshot, ended at the faulted call
	howReplayed                    // executed by full replay from t=0
	howMemoised                    // copied from the point's first trial of the same effective fault
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
	cut := int(s.trials[howReconverged].Load())
	return SnapshotStats{
		Snapshots:   used,
		Forked:      int(s.trials[howForked].Load()) + cut,
		Replayed:    int(s.trials[howReplayed].Load()),
		Memoised:    int(s.trials[howMemoised].Load()),
		Reconverged: cut,
	}
}
