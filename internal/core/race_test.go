//go:build race

package core_test

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random by design — the scratch pools' anchoring among them — so
// allocation budgets are not measured there.
const raceEnabled = true
