package mpi

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
