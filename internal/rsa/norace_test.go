//go:build !race

package rsa

const raceEnabled = false
