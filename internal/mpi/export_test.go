package mpi

// RaceEnabled lets the external test package (fork_reconverge_test.go) trim
// its sweep under the race detector, as the in-package tests do.
const RaceEnabled = raceEnabled
