//go:build !race

package core_test

// raceEnabled is false outside a -race build (race_test.go).
const raceEnabled = false
