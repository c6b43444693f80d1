//go:build race

package core_test

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random by design, so the sharded warm-Run allocation guard, whose
// worker frames and compiled units come from sync.Pools, logs its reading
// there instead of failing; the non-race runs enforce it.
const raceEnabled = true
