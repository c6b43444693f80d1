//go:build !race

package storage

// raceEnabled is false outside a -race build (race_test.go).
const raceEnabled = false
