package mpi

import "maps"

// RaceEnabled lets the external test package (fork_reconverge_test.go) trim
// its sweep under the race detector, as the in-package tests do.
const RaceEnabled = raceEnabled

// parkedCount reads how many ranks of the world are parked, under the lock
// that guards the count.
func (w *World) parkedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.parked
}

// WithoutResume returns a copy of f whose ranks all replay from t=0: the
// reference a resumed run is compared with (resume_test.go).
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
