package storage

import "testing"

// TestShardDriftAggregationRegression pins the drift invariant of the
// sharded catalog: physical partitioning never perturbs the predicate-level
// counter. The plan cache's freshness policy compares PredicateDB.DriftCounter
// totals, so a sharded and an unsharded run of the identical mutation
// sequence must observe the same totals at every step — otherwise sharding
// would silently change which cached plans survive.
//
// The insert sequence is deliberately skewed: most keys hash to one bucket
// (a hub node fanning out), the shape that exposed aggregation bugs in
// incremental re-partitioning systems.
func TestShardDriftAggregationRegression(t *testing.T) {
	mkPred := func(shards int) *PredicateDB {
		c := NewCatalog()
		pd := c.Pred(c.Declare("p", 2))
		pd.SetShardsPhysical(shards, 0)
		return pd
	}
	flat := mkPred(0)
	physical := mkPred(4)
	skewKey := Value(7)

	step := 0
	apply := func(f func(*PredicateDB)) {
		t.Helper()
		f(flat)
		f(physical)
		step++
		if f, p := flat.DriftCounter(), physical.DriftCounter(); f != p {
			t.Fatalf("step %d: physical drift total %d != unsharded %d", step, p, f)
		}
	}

	// Forced skew: 20 tuples on one hub key, 4 spread keys.
	for i := 0; i < 20; i++ {
		i := i
		apply(func(p *PredicateDB) { p.AddFact([]Value{skewKey, Value(i)}) })
	}
	for i := 0; i < 4; i++ {
		i := i
		apply(func(p *PredicateDB) { p.AddFact([]Value{Value(100 + i), Value(i)}) })
	}
	// First-iteration seeding and its rotation, then two fixpoint-style
	// delta rotations with fresh derivations in between.
	apply(func(p *PredicateDB) { p.SeedAll(); p.SwapClear() })
	apply(func(p *PredicateDB) { p.Emit([]Value{skewKey, 500}) })
	apply(func(p *PredicateDB) { p.SwapClear() })
	apply(func(p *PredicateDB) { p.Emit([]Value{Value(101), 501}) })
	apply(func(p *PredicateDB) { p.SwapClear() })

	// Incremental-batch rewind: truncate to the ground baseline and reload.
	apply(func(p *PredicateDB) { p.Derived.TruncateTo(24) })
	apply(func(p *PredicateDB) { p.DeltaKnown.Clear(); p.DeltaNew.Clear() })
	for i := 0; i < 6; i++ {
		i := i
		apply(func(p *PredicateDB) { p.AddFact([]Value{skewKey, Value(600 + i)}) })
	}

	// Regression pin: the exact total for this sequence. If this moves, the
	// drift accounting the plan cache depends on changed — that is an API
	// break for cached-plan freshness, not a cosmetic diff.
	const wantTotal = 65
	if got := flat.DriftCounter(); got != wantTotal {
		t.Fatalf("unsharded drift total = %d, pinned %d", got, wantTotal)
	}
	if got := physical.DriftCounter(); got != wantTotal {
		t.Fatalf("physical drift total = %d, pinned %d", got, wantTotal)
	}
}
