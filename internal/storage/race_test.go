//go:build race

package storage

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random by design, the scratch pool's anchoring Put among them, so
// the test of how long a slab lives skips there.
const raceEnabled = true
