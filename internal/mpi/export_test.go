package mpi

import (
	"fmt"
	"maps"
)

// RaceEnabled lets the external test package trim its sweeps under the race
// detector, as the in-package tests do.
const RaceEnabled = raceEnabled

// parkedCount reads how many ranks of the world are parked, under the lock
// that guards the count.
func (w *World) parkedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.parked
}

// WithoutResume returns a copy of f whose ranks all replay from t=0.
func (f *Fork) WithoutResume() *Fork {
	g := *f
	g.resume = make([]*checkpoint, len(f.resume))
	return &g
}

// Resumes counts the ranks of f that start from a checkpoint.
func (f *Fork) Resumes() int {
	n := 0
	for _, ck := range f.resume {
		if ck != nil {
			n++
		}
	}
	return n
}

// Eligible lists, by their index on every rank, the checkpoints a forked
// run of t may end at (checkpoint.go, part 6).
func (t *Trace) Eligible() []int {
	var ks []int
	for _, e := range t.eligible {
		ks = append(ks, e.k)
	}
	return ks
}

// Books is what a rank has booked by the time it stops: its work, its
// per-site invocation counts, its phase and its error-handling mark.
type Books struct {
	Work        int64
	Invents     map[uintptr]int
	Phase       Phase
	ErrHandling bool
}

// BooksOf reads r's books; call it from r's own goroutine.
func BooksOf(r *Rank) Books { return Books{r.work, maps.Clone(r.invents), r.phase, r.errHandling} }

// RanksSettled reports whether every rank's end is a function of the
// program alone: nothing killed the run, or it froze (a deadlock, or peers
// starved behind a failed rank). A kill by a segfault, a reconvergence, a
// divergence or a clock stops the other ranks wherever they happen to be,
// and a decided kill (Decided) before they ever started.
func (r RunResult) RanksSettled() bool {
	return r.Provenance == NotKilled || r.Provenance == Deadlocked || r.Provenance == Aborted
}

// FlagsDisagree says how r's Deadlock, TimedOut and Cancelled differ from
// what its Provenance says, "" when they agree.
func (r RunResult) FlagsDisagree() string {
	if r.Deadlock == (r.Provenance == Deadlocked) && r.TimedOut == (r.Provenance == TimedOut) && r.Cancelled == (r.Provenance == Cancelled) {
		return ""
	}
	return fmt.Sprintf("deadlock=%t timedout=%t cancelled=%t, but provenance %q", r.Deadlock, r.TimedOut, r.Cancelled, r.Provenance)
}

// Meetings reports how r's rendezvous instances ended: how many met in
// memory and how many rendezvous-call arrivals ran on messages.
func (r RunResult) Meetings() (met, flipped int) { return r.meetings.clean, r.meetings.flipped }

// Stopped reports whether r's world has been killed.
func Stopped(r *Rank) bool { return r.world.killed() }

// Matched reads how many ranks of r's world have matched the golden run at
// the faulted call, under the lock that guards the count.
func Matched(r *Rank) int {
	w := r.world
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.matched
}

// ForkTestApp lets the execution-mode table run forkTestApp.
var ForkTestApp = forkTestApp

// CheckpointStates lists the application states rank r checkpointed on t,
// in tape order.
func (t *Trace) CheckpointStates(r int) []State {
	var out []State
	for _, ck := range t.ranks[r].ckpts {
		out = append(out, ck.state)
	}
	return out
}
