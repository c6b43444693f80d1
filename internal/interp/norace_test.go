//go:build !race

package interp

// raceEnabled is false outside a -race build (race_test.go).
const raceEnabled = false
