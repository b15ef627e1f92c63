//go:build race

package rsa

// raceEnabled skips allocation gates: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
