//go:build !race

package bn

const raceEnabled = false
