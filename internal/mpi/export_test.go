package mpi

// RaceEnabled lets the external test package (fork_reconverge_test.go) trim
// its sweep under the race detector, as the in-package tests do.
const RaceEnabled = raceEnabled

// books reads a world's message conservation counters and counts what its
// inboxes still hold (quiescence_test.go).
func (w *World) books() (delivered, absorbed, queued int64) {
	for _, rk := range w.ranks {
		queued += int64(len(rk.inbox))
	}
	return w.delivered.Load(), w.absorbed.Load(), queued
}
