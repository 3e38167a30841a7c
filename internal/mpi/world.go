package mpi

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// CommWorld is the handle of the world communicator, present in every run.
const CommWorld Comm = commKind | 0

// RunOptions configures a single execution of an application on the
// simulated runtime.
type RunOptions struct {
	// NumRanks is the number of MPI processes (goroutines) to launch.
	NumRanks int
	// Timeout bounds the wall-clock duration of the run; past it the run is
	// cancelled and blocked ranks die with Killed. Zero means 2 seconds. It
	// is the backstop for ranks that compute forever, and the only wall
	// clock that can decide an outcome: a run whose surviving ranks are all
	// blocked is ended by the rank whose park or exit froze it, never by
	// waiting (World.decide).
	Timeout time.Duration
	// Seed feeds the per-rank deterministic random generators.
	Seed int64
	// WorkBudget bounds the work units each rank may Tick before being
	// killed (simulating a scheduler killing a runaway job). Zero means
	// 10 million units; negative disables the budget.
	WorkBudget int64
	// Hook observes (and may mutate) every collective call, or with Fork set
	// only the calls the fork's fault can be addressed to. May be nil.
	Hook Hook
	// MailboxCap bounds the messages waiting in a rank's inbox that no
	// receive has examined yet; a sender finding it full blocks. Zero means
	// 4096 messages.
	MailboxCap int
	// Context, when non-nil, cancels the run early: once it is done the
	// world is killed and blocked ranks die with Killed, exactly as on a
	// wall-clock timeout; a run whose Context is done on entry starts no
	// rank. Campaign supervisors use this to stop in-flight injected runs
	// promptly on Ctrl-C.
	Context context.Context
	// DisablePooling turns off the buffer arena (see pool.go) that
	// recycles rank state, message payloads, collective scratch and
	// simulated-memory buffers across runs, and the shared-memory
	// rendezvous (see rendezvous.go) that completes a Barrier or Allreduce
	// without messages: every collective then runs on messages alone. Both
	// are on by default; the execution-mode tables run it as the reference
	// that proves the pooled and unpooled paths, and the rendezvous and
	// message paths, outcome-identical.
	DisablePooling bool
	// Network, when non-nil, routes every point-to-point message (and the
	// internal traffic of every collective) through a simulated
	// interconnect with faultable links (see network.go). Nil preserves
	// the paper's perfectly reliable flat network at zero cost.
	Network *Network
	// CrashedRanks lists world ranks whose node failed before launch:
	// their goroutines never start, their results carry NodeCrashed, and
	// the surviving ranks see them dead from the first instruction
	// (AliveAtStart is false). Out-of-range entries are ignored.
	CrashedRanks []int
	// Record captures the run's communication as a Trace (see trace.go)
	// returned in RunResult.Trace, with the application's checkpoints (see
	// checkpoint.go), from which injection-prefix Forks are built. It
	// combines with a Hook, so one golden run can be profiled and recorded
	// at once. Meaningful only on golden (fault-free, reliable-network)
	// runs: a run with a Network or CrashedRanks yields an unforkable trace.
	Record bool
	// Fork, when non-nil, serves each rank's pre-injection communication
	// prefix from a recorded golden trace instead of executing it (see
	// fork.go), and lets a rank that asks (Rank.Resume) skip the prefix's
	// computation up to its last checkpoint. The Hook then mutates only the
	// collective the fork was cut for, and sees only the fork's rank's live
	// collectives up to and including that one. Only the fork's rank starts
	// with the run; the others start once it first needs a peer (fork.go,
	// part 5). Mutually exclusive with Record, Network and CrashedRanks:
	// Run panics on any of those with a Fork.
	Fork *Fork
}

// RankResult reports how one rank finished.
type RankResult struct {
	Rank   int
	Err    error     // nil on clean exit; MPIError/SegFault/AppError/Killed otherwise
	Values []float64 // values the rank reported via ReportResult
}

// RunResult aggregates one application execution.
type RunResult struct {
	Ranks     []RankResult
	Deadlock  bool // every surviving rank blocked, and none had failed
	TimedOut  bool // the wall-clock timeout cancelled the run
	Cancelled bool // RunOptions.Context was done before completion
	Elapsed   time.Duration
	Trace     *Trace // recorded communication, when RunOptions.Record was set
	// Reconverged reports that a forked run was cut short because the rest
	// of it is the golden suffix: every rank left the faulted collective
	// holding what the golden run held there (fork.go, part 3), or reached
	// a later checkpoint in the golden run's state (checkpoint.go). Ranks
	// are then the recording run's own, and Provenance says which cut it was.
	Reconverged bool
	// Divergence is set when a forked rank's replayed prefix left the tape
	// (see Divergence): a fault of the harness, after which Ranks say
	// nothing about the application.
	Divergence error
	// Provenance is what ended the run: the first kill, or the cut of a
	// reconverged run, or NotKilled.
	Provenance Provenance

	meetings meetCounts // how the run's rendezvous instances ended (tests)
}

// FirstError returns the highest-priority error across ranks, or nil. The
// priority order matches how a batch system reports a job that failed for
// several reasons at once: a crash beats an MPI abort beats an application
// abort beats a kill. A node crash ranks below everything else: when the
// only errors are NodeCrashed, the run's fate is decided by what the
// surviving ranks did, not by the crash itself.
func (r RunResult) FirstError() error {
	var app, mpiErr, seg, killed, crashed error
	for _, rr := range r.Ranks {
		switch e := rr.Err.(type) {
		case nil:
		case SegFault:
			if seg == nil {
				seg = e
			}
		case MPIError:
			if mpiErr == nil {
				mpiErr = e
			}
		case AppError:
			if app == nil {
				app = e
			}
		case NodeCrashed:
			if crashed == nil {
				crashed = e
			}
		default:
			if killed == nil {
				killed = e
			}
		}
	}
	for _, e := range []error{seg, mpiErr, app, killed, crashed} {
		if e != nil {
			return e
		}
	}
	return nil
}

// World is one simulated machine: ranks, communicators and the mailboxes
// between them. A World lives for exactly one Run call.
type World struct {
	size    int
	ranks   []*Rank
	comms   []*commInfo
	hook    Hook
	pooling bool // buffer arena active for this run (see pool.go)
	mailbox int  // bound on each rank's inbox (RunOptions.MailboxCap)

	// rec, when non-nil, records the run's communication (see trace.go).
	rec *traceRecorder

	// mu, the world's one lock, guards every rank's inbox, parked flag and
	// meeting state, the counts and death mask below, the kill reason, the
	// rendezvous (its records and tally below, commInfo.arrived) and the
	// communicator table. Only a running rank can wake a parked one, and
	// every wake un-counts its rank under mu before the waker lets go, so
	// the run is frozen exactly when parked+finished == size with some rank
	// unfinished. The park or exit that completes that sum sees it under mu
	// and ends the run there (decide).
	mu       sync.Mutex
	parked   int
	finished int
	failed   int         // ranks that ended in a panic or error
	dead     []bool      // world-rank death mask; nil on the reliable network
	why      Provenance  // the first kill's reason; written once, under mu
	killErr  error       // Killed{why}: what every rank the kill ends dies with, boxed once
	stopped  atomic.Bool // set with why and killErr, for Tick's check outside mu

	// The shared-memory rendezvous of the synchronizing collectives
	// (rendezvous.go), on when meetOn: the records of the clean instances
	// open, the records to reuse and the tally.
	meetOn   bool
	meetings []*meeting
	spare    []*meeting
	met      meetCounts

	// A forked run's snapshot, which also scopes the hook (Rank.observed),
	// and its reconvergence cuts: matched counts, under mu, the ranks that
	// left the faulted collective in the golden run's state (fork.go, part
	// 3), and tally[j] the ranks that reached the trace's eligible
	// checkpoint j in it (checkpoint.go); the rank that completes either
	// ends the run, and cut records which. snap belongs to the faulted
	// rank's goroutine, between its hook and the end of its call.
	fork    *Fork
	snap    *callSnapshot
	matched int
	tally   []int32
	cut     Provenance

	// Start on demand (fork.go, part 5): while held, under mu, only the
	// fork's rank runs, and release hands every other rank to launch, which
	// starts its goroutine.
	held   bool
	launch func(*Rank)

	// Network fault domain (nil/false on the default reliable network, so
	// the no-fault hot path pays a single branch in post).
	faulty      bool
	net         *Network
	deadAtStart []bool // immutable after launch
}

// commInfo is the runtime's communicator descriptor. The comms table is
// indexed by the raw Comm handle with no bounds validation, mirroring how a
// C MPI library dereferences MPI_Comm pointers; a corrupted handle therefore
// crashes (Go's index panic -> simulated SIGSEGV) rather than erroring.
type commInfo struct {
	handle  Comm
	members []int // world ranks, index = rank within this communicator
	rankOf  map[int]int

	// The rendezvous bookings (rendezvous.go), under World.mu: each member's
	// count of the instances it has entered, which a split or duplicate has
	// only where the rendezvous is on.
	arrived []int64
}

// Provenance is what ended a run: nothing, when every rank returned or
// failed on its own, or the first kill, which is the one that counts. A
// killed world's ranks die with Killed{Reason: p.String()}, and RunResult's
// Deadlock, TimedOut, Cancelled and Reconverged say which kill it was.
type Provenance uint8

const (
	NotKilled               Provenance = iota
	Deadlocked                         // every surviving rank blocked, and none had failed
	Aborted                            // peers starved behind a failed rank
	SegFaulted                         // a rank segfaulted, which ends the job
	TimedOut                           // the wall-clock timeout
	Cancelled                          // RunOptions.Context was done
	Reconverged                        // cut at the faulted collective (fork.go, part 3)
	ReconvergedAtCheckpoint            // cut at a later checkpoint (checkpoint.go)
	Diverged                           // a forked prefix left its tape
	Decided                            // the faulted rank failed while the others were held
)

var provenanceText = [...]string{
	NotKilled:               "not killed",
	Deadlocked:              "deadlock: all surviving ranks blocked with no progress",
	Aborted:                 "job abort: peers starved by a failed rank",
	SegFaulted:              "job abort: a rank segfaulted",
	TimedOut:                "wall-clock timeout",
	Cancelled:               "run cancelled",
	Reconverged:             "reconverged: the rest of the run is the golden suffix",
	ReconvergedAtCheckpoint: "reconverged at a checkpoint: the rest of the run is the golden suffix",
	Diverged:                "harness fault: fork replay divergence",
	Decided:                 "decided: the faulted rank failed before communicating",
}

func (p Provenance) String() string { return provenanceText[p] }

// kill ends the run with the first reason given and wakes every parked
// rank, which dies in park (Killed). A running rank dies at its next park
// or Tick. Called under mu.
func (w *World) kill(why Provenance) {
	if w.why != NotKilled {
		return
	}
	w.why = why
	w.killErr = Killed{Reason: why.String()}
	w.stopped.Store(true)
	w.wakeAll()
}

// cutRun ends the run as a cut: Run returns the golden ranks whatever
// kill came first. Called under mu by the rank that completes a tally.
func (w *World) cutRun(cut Provenance) {
	if w.cut == NotKilled {
		w.cut = cut
	}
	w.kill(cut)
}

func (w *World) killed() bool { return w.stopped.Load() }

// decide ends the run if the caller's park or exit froze it: every rank
// parked or finished, and some rank unfinished. Nothing is left to wake the
// parked ones. With a failed rank among the finished it is a job abort, the
// way mpirun tears down a job whose rank died: the peers starve behind the
// failure, which stays the run's outcome. Otherwise it is a deadlock of the
// application's own making. Called under mu.
func (w *World) decide() {
	if w.parked+w.finished != w.size || w.finished == w.size {
		return
	}
	if w.failed > 0 {
		w.kill(Aborted)
	} else {
		w.kill(Deadlocked)
	}
}

// exit books a rank's end under mu. A node crash marks the rank dead and
// wakes every parked rank to re-check its death watch or blocked send; the
// crashed rank's sends were all enqueued before, under the same lock. The
// failure and the finish are counted in one step, so a frozen run that
// counts a failed rank finished is always a job abort, never a deadlock.
//
// A segfault ends the job there, the way a launcher tears down a job one of
// whose processes died on a signal: nothing the other ranks could still do
// changes the verdict. FirstError ranks a SegFault above every other error,
// the classifier reads it before Deadlock and TimedOut, and a segfaulted
// rank never matches a reconvergence tally (TestSegFaultOutranksEveryFailure
// pins the first two). An MPI or application error is not final in the same
// way, since a rank still running could yet segfault, so it only counts.
// A Divergence ends the run as well: it has no outcome to wait for.
// So does any error of a forked run's faulted rank while the others are
// held (fork.go, part 5), which are counted finished and failed; a clean
// exit releases them instead.
func (w *World) exit(rank int, err error) {
	w.mu.Lock()
	switch err.(type) {
	case NodeCrashed:
		if w.faulty {
			w.dead[rank] = true
			w.wakeAll()
		}
	case SegFault:
		w.kill(SegFaulted)
	case Divergence:
		w.kill(Diverged)
	}
	if w.held {
		if err == nil && w.why == NotKilled {
			w.release()
		} else {
			w.kill(Decided)
			w.finished += w.size - 1
			w.failed += w.size - 1
		}
	}
	if err != nil {
		w.failed++
	}
	w.finished++
	w.decide()
	w.mu.Unlock()
}

// unpark un-counts rk if it is parked and reports whether it was; the
// caller then signals it. Called under mu, so the run cannot read as frozen
// between the wake and rk's next park. Only the caller that un-counted a
// park signals it, so each park gets exactly one wake.
func (w *World) unpark(rk *Rank) bool {
	if !rk.parked {
		return false
	}
	rk.parked = false
	w.parked--
	return true
}

// signal wakes a rank unpark has un-counted. It never blocks: the rank's
// slot is free until this, its one wake, lands.
func (rk *Rank) signal() {
	select {
	case rk.wake <- struct{}{}:
	default:
	}
}

// release starts the ranks a forked run holds (fork.go, part 5): the fork's
// rank is about to post, park or return, the first act of its that a peer
// could see. Called under mu, before the act.
func (w *World) release() {
	w.held = false
	for _, rk := range w.ranks {
		if rk.id != w.fork.rank {
			w.launch(rk)
		}
	}
}

// wakeAll wakes every parked rank to re-check what it waits for. Called
// under mu on a death mark, on a kill and when a full inbox is drained.
func (w *World) wakeAll() {
	for _, rk := range w.ranks {
		if w.unpark(rk) {
			rk.signal()
		}
	}
}

// Run executes fn on opts.NumRanks simulated MPI processes and collects the
// per-rank outcomes. fn must be safe for concurrent execution; each rank
// receives its own *Rank handle.
func Run(opts RunOptions, fn func(r *Rank) error) RunResult {
	if opts.Fork != nil && (opts.Record || opts.Network != nil || len(opts.CrashedRanks) > 0) {
		panic("mpi: RunOptions.Fork cannot be combined with Record, Network or CrashedRanks")
	}
	n := opts.NumRanks
	if n <= 0 {
		n = 1
	}
	if opts.Context != nil && opts.Context.Err() != nil {
		// Done before launch: no rank runs, so none parks into a deadlock first.
		res := RunResult{Ranks: make([]RankResult, n), Cancelled: true, Provenance: Cancelled}
		for i := range res.Ranks {
			res.Ranks[i] = RankResult{Rank: i, Err: Killed{Reason: Cancelled.String()}}
		}
		return res
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	mailbox := opts.MailboxCap
	if mailbox <= 0 {
		mailbox = 4096
	}

	pooling := !opts.DisablePooling
	budget := opts.WorkBudget
	if budget == 0 {
		budget = 10_000_000
	}
	if budget < 0 {
		budget = 0 // disabled
	}

	// With pooling on, the per-rank skeleton (mailboxes, rand sources,
	// maps, caches) is recycled from earlier runs of the same size and
	// returned to the arena once every rank goroutine has been joined.
	var shell *runShell
	if pooling {
		shell = getShell(n)
	}
	if shell == nil {
		shell = newShell(n)
	}
	w := &World{
		size:    n,
		hook:    opts.Hook,
		pooling: pooling,
		mailbox: mailbox,
	}
	w.comms = []*commInfo{shell.world0}
	w.ranks = shell.ranks
	for i, rk := range w.ranks {
		rk.bind(w, rankSeed(opts.Seed, i), budget)
	}
	if opts.Record {
		w.rec = newTraceRecorder(n)
		if opts.Network != nil || len(opts.CrashedRanks) > 0 {
			w.rec.poison("recording run had an active network fault domain")
		}
	}
	if opts.Fork != nil {
		w.bindFork(opts.Fork)
	}

	results := make([]RankResult, n)
	if opts.Network != nil || len(opts.CrashedRanks) > 0 {
		w.faulty = true
		w.net = opts.Network
		w.dead = make([]bool, n)
		w.deadAtStart = make([]bool, n)
		for _, cr := range opts.CrashedRanks {
			if cr >= 0 && cr < n && !w.dead[cr] {
				// The node failed before launch: its goroutine never starts,
				// and it is counted finished and failed before any rank runs.
				w.dead[cr], w.deadAtStart[cr] = true, true
				w.finished++
				w.failed++
				results[cr] = RankResult{Rank: cr, Err: NodeCrashed{Rank: cr, Reason: "node failed before launch"}}
			}
		}
	}
	if pooling && !w.faulty {
		w.meetOn, w.meetings, w.spare = true, shell.meetings, shell.spare
	}

	var wg sync.WaitGroup
	w.launch = func(rk *Rank) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			defer func() {
				if p := recover(); p != nil {
					err = panicToError(rk.id, p)
				}
				results[rk.id] = RankResult{Rank: rk.id, Err: err, Values: rk.reported}
				w.exit(rk.id, err)
			}()
			err = fn(rk)
			if rs := rk.replay; rs != nil && rs.pos < rs.cut {
				panic(Divergence{Detail: fmt.Sprintf("returned at tape position %d, before its cut at %d", rs.pos, rs.cut)})
			}
		}()
	}
	start := time.Now()
	// Read from a copy: once the fork's rank runs, w.held is its under mu.
	held := w.fork != nil && n > 1
	w.held = held
	for _, rk := range w.ranks {
		if w.faulty && w.deadAtStart[rk.id] || held && rk.id != w.fork.rank {
			continue
		}
		w.launch(rk)
	}

	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()

	var ctxDone <-chan struct{}
	if opts.Context != nil {
		ctxDone = opts.Context.Done()
	}
	w.supervise(allDone, ctxDone, timeout)
	if w.held {
		for _, rk := range w.ranks {
			if rk.id != w.fork.rank {
				results[rk.id] = RankResult{Rank: rk.id, Err: w.killErr}
			}
		}
	}

	if pooling {
		w.closeMeetings()
		shell.meetings, shell.spare = w.meetings, w.spare
		// Every rank goroutine has been joined, so the shell (and any pooled
		// memory still referenced by abandoned in-flight messages) can be
		// reclaimed safely.
		shell.reclaim()
		putShell(shell)
	}

	res := RunResult{
		Ranks:      results,
		Elapsed:    time.Since(start),
		Provenance: w.why,
		meetings:   w.met,
	}
	for _, rr := range results {
		if d, ok := rr.Err.(Divergence); ok {
			res.Divergence = d
			break
		}
	}
	if w.cut != NotKilled {
		// Decided by the tally, not by which kill came first: a run whose
		// deadline or cancellation raced its last matching rank reconverged
		// all the same, and its outcome is the golden run's either way.
		res.Ranks, res.Reconverged = slices.Clone(w.fork.trace.golden), true
		res.Provenance = w.cut
	}
	res.Deadlock, res.TimedOut, res.Cancelled = res.Provenance == Deadlocked, res.Provenance == TimedOut, res.Provenance == Cancelled
	if w.rec != nil {
		if res.Deadlock || res.TimedOut || res.Cancelled {
			w.rec.poison("recording run did not complete cleanly")
		}
		res.Trace = w.rec.finish(results)
	}
	return res
}

// supervise waits for every rank goroutine to return, killing the run at
// the wall-clock deadline or on external cancellation. It decides nothing
// else: the rank whose park or exit freezes the run ends it (decide), as
// does the rank that completes a reconvergence tally (reconverge).
func (w *World) supervise(allDone chan struct{}, ctxDone <-chan struct{}, timeout time.Duration) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-allDone:
		return
	case <-deadline.C:
		w.mu.Lock()
		w.kill(TimedOut)
		w.mu.Unlock()
	case <-ctxDone:
		w.mu.Lock()
		w.kill(Cancelled)
		w.mu.Unlock()
	}
	<-allDone
}

func panicToError(rank int, p any) error {
	switch e := p.(type) {
	case MPIError, SegFault, AppError, Killed, NodeCrashed:
		return e.(error) // already boxed: no copy per rank
	case Divergence:
		e.Rank = rank
		return e
	case error:
		// A genuine Go runtime panic (index out of range, nil deref, ...)
		// is the simulator-level equivalent of SIGSEGV in the MPI library.
		return SegFault{Op: fmt.Sprintf("runtime: %v", e)}
	default:
		return SegFault{Op: fmt.Sprintf("runtime: %v", p)}
	}
}
