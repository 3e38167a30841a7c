//go:build race

package core

// raceEnabled trims the heavyweight sweeps (execution-mode seeds, paper-scale
// supervision) to keep the race-instrumented CI run affordable; the full
// sweeps run in the uninstrumented step.
const raceEnabled = true
