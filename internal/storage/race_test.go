//go:build race

package storage

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random by design, so the allocation guards, which rely on the
// scratch pool handing slabs back, log their readings there instead of
// failing; the non-race runs enforce them.
const raceEnabled = true
