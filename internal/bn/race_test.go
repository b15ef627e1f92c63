//go:build race

package bn

// raceEnabled skips allocation gates: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
