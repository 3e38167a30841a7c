//go:build race

package main

// raceEnabled trims the smoke runs to one workload under the race detector,
// as the repository's other suites trim their sweeps there.
const raceEnabled = true
