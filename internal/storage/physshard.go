package storage

import "fmt"

// This file implements the physically sharded storage layout behind the
// SetShardKey partitioning. A relation has one of three layouts:
//
//   - flat: one arena, one row table;
//   - view (SetShardKey, shard.go): flat, plus per-bucket row-id views over
//     the shared arena — what Derived uses in every sharded configuration;
//   - physical (SetShardKeyPhysical): every bucket is a fully independent
//     sub-relation with its own arena slab, row table, indexes, and
//     mutation counter — the delta pair of a sharded run, whose bucket
//     tasks then scan and probe one slab each.
//
// Duplicate elimination is the same structure in all three — the row table
// of rowtable.go, one per arena — and so are the reference counts, the
// histograms and the indexes, which live wherever the rows do. A membership
// probe only loads from the table and the arena, so the set difference
// against the iteration-frozen Derived that every parallel worker performs
// per candidate tuple needs no per-bucket structure to be race-free; the
// former split-dedup layout, which existed to give each worker a bucket-local
// Go map, is gone.
//
// Every layout preserves the relation-level mutation counter exactly: for any
// operation sequence, Mutations() reports the same value the flat layout
// would have, so the drift totals the plan cache's freshness policy observes
// are byte-identical across {flat, view, physical}. Per-bucket counters stay
// monotone across arbitrary mode transitions.

// resetContents drops all tuples and index entries without touching any
// mutation counter — the caller owns the accounting. The arena is always
// emptied in place; retain keeps the row table's and the indexes' capacity
// for consumers that immediately refill (the capacity rules of rowTable and
// chainIndex), otherwise both are given back. A pinned arena
// (an epoch view references it — physical buckets are pinned individually by
// PinRows) is detached to a fresh slab instead of truncated in place, so the
// refill never rewrites rows the view still serves.
func (r *Relation) resetContents(retain bool) {
	if retain {
		r.tab.reset()
	} else {
		r.tab = newRowTable()
	}
	if !r.detachPinned(0) {
		r.arena = r.arena[:0]
	}
	r.histReset()
	r.counts = r.counts[:0]
	for i := range r.indexes {
		r.indexes[i].reset(retain)
	}
}

// maxObservableCounter returns a value at least as large as the relation
// counter and every currently observable per-bucket counter, in any mode —
// the floor new per-bucket counters must be bumped past so that equal
// observations never bracket a mode transition.
func (r *Relation) maxObservableCounter() uint64 {
	m := r.Mutations()
	for s := 0; s < r.shardCount; s++ {
		if c := r.ShardMutations(s); c > m {
			m = c
		}
	}
	for _, c := range r.shardMuts {
		if c > m {
			m = c
		}
	}
	return m
}

// SetShardKeyPhysical converts the relation to the physical mode: shards
// independent sub-relations keyed by hash of column col. Content and
// Mutations() are preserved exactly; per-bucket counters jump past every
// previously observable value (bucket contents are reassigned wholesale).
// Idempotent for an identical configuration; shards < 2 removes the
// partition.
func (r *Relation) SetShardKeyPhysical(shards, col int) {
	if shards < 2 {
		r.SetShardKey(shards, col)
		return
	}
	if col < 0 || col >= r.arity {
		panic("storage: shard key column out of range")
	}
	if r.subs != nil && r.shardCount == shards && r.shardCol == col {
		return
	}
	base := r.maxObservableCounter() + 1
	if r.subs != nil {
		r.dissolvePhys()
	}
	target := r.muts

	subs := make([]*Relation, shards)
	for s := range subs {
		sub := NewRelation(fmt.Sprintf("%s·%d", r.name, s), r.arity)
		sub.lazy = r.lazy
		for i := range r.indexes {
			sub.buildIndex(r.indexes[i].cols)
		}
		for c := range r.histograms {
			sub.BuildHistogram(c)
		}
		if r.countsOn {
			sub.EnableCounts()
		}
		subs[s] = sub
	}
	rows := 0
	for off := 0; off < len(r.arena); off += r.arity {
		t := r.arena[off : off+r.arity : off+r.arity]
		sub := subs[ShardOf(t[col], shards)]
		sub.Insert(t)
		if r.countsOn {
			// The re-insert recorded count 1; carry the row's real assertion
			// count into the bucket with it.
			sub.counts[len(sub.counts)-1] = r.counts[rows]
		}
		rows++
	}
	r.subs = subs
	r.shardCount, r.shardCol = shards, col
	r.shardRows = nil
	r.shardMuts = make([]uint64, shards)
	for s := range r.shardMuts {
		r.shardMuts[s] = base
	}
	// The re-inserts above advanced the sub counters by one per row; deduct
	// them from the parent component so the observable total is unchanged
	// (every arena row was one successful insert in the flat history too).
	r.muts = target - uint64(rows)
	// The flat slab was abandoned wholesale (rows moved into the buckets),
	// which satisfies any pinned epoch view without a copy.
	r.arena, r.pinned = nil, false
	r.tab = newRowTable()
	for i := range r.indexes {
		r.indexes[i].reset(false)
	}
	// Histogram counts moved into the bucket sub-relations with the rows;
	// the parent keeps an empty registration (HistogramOf sums the subs),
	// and likewise the reference counts moved with them.
	r.histReset()
	r.counts = nil
}

// dissolvePhys converts a physical relation back to the flat layout,
// preserving content and the observable mutation total. The per-bucket
// observables are parked in shardMuts so any later partition registration
// bumps past them.
func (r *Relation) dissolvePhys() {
	target := r.Mutations()
	for s := range r.subs {
		r.shardMuts[s] += r.subs[s].muts
	}
	subs := r.subs
	r.subs = nil
	r.shardCount, r.shardCol = 0, 0
	r.shardRows = nil
	for _, sub := range subs {
		i := 0
		sub.Each(func(row []Value) bool {
			r.Insert(row)
			if r.countsOn && sub.countsOn {
				r.counts[len(r.counts)-1] = sub.counts[i]
			}
			i++
			return true
		})
	}
	r.muts = target
}

// PhysSubs returns the per-bucket sub-relations of a physically sharded
// relation, or nil in every other mode. Executors use it to serve scans and
// probes bucket-locally (per-bucket row ids are meaningless to the parent).
// Callers must not mutate the slice or insert through it.
//
// Sub-relation identity is stable for the lifetime of a physical
// configuration: Clear, ClearRetain, and an idempotent re-registration of
// the identical layout (the per-Run ConfigureShardsPhysical path) empty or
// keep the existing sub-relations in place, never reallocate them, and the
// parent struct carries its subs through SwapClear's pointer exchange.
// Compiled units nonetheless resolve PhysSubs per invocation rather than
// capturing the slice — a changed layout dissolves and rebuilds the
// sub-relations, and resolving late is what keeps a cached unit valid
// across partition-mode transitions (the unit fingerprint only pins the
// bucket count its spans were sized for).
func (r *Relation) PhysSubs() []*Relation { return r.subs }

// ProbeSpan returns the sub-relation index range [lo, hi) a probe for
// col == v must visit on a physically sharded relation: exactly the key's
// bucket when col is the shard key column (rows with other keys cannot live
// elsewhere), every bucket otherwise. The routing rule lives here so every
// executor and compiled backend shares one implementation. Meaningless when
// PhysSubs() is nil.
func (r *Relation) ProbeSpan(col int, v Value) (lo, hi int) {
	return r.ProbeSpanComposite([]int{col}, []Value{v})
}

// ProbeSpanComposite is ProbeSpan for a composite probe: when any probed
// column is the shard key column, its key routes to one bucket.
func (r *Relation) ProbeSpanComposite(cols []int, vals []Value) (lo, hi int) {
	if r.subs == nil {
		return 0, 0
	}
	for ci, c := range cols {
		if c == r.shardCol {
			b := ShardOf(vals[ci], r.shardCount)
			return b, b + 1
		}
	}
	return 0, len(r.subs)
}

// EachProbe visits every row with row[col] == v until f returns false,
// through the best access path the relation's mode offers: the global hash
// index (or a filtered scan when none is registered) on a flat or
// view-partitioned relation, per-bucket indexes routed by ProbeSpan on a
// physical one. Every executor and compiled backend probes through this one
// implementation, so the index-miss degradation and the bucket routing
// cannot drift apart between engines. Like Probe, it panics on a registered
// index that has not caught up with the rows (EnsureIndex).
func (r *Relation) EachProbe(col int, v Value, f func(row []Value) bool) {
	r.EachProbeComposite([]int{col}, []Value{v}, f)
}

// EachShardRangeProbe is EachProbe restricted to buckets [lo, hi) of a
// physically sharded relation — the probe surface of a bucket-span task
// (callers intersect ProbeSpan with their task span). On a non-physical
// relation it falls back to the unrestricted EachProbe.
func (r *Relation) EachShardRangeProbe(lo, hi, col int, v Value, f func(row []Value) bool) {
	r.EachShardRangeProbeComposite(lo, hi, []int{col}, []Value{v}, f)
}

// EachProbeComposite is EachProbe for a composite key over cols/vals.
func (r *Relation) EachProbeComposite(cols []int, vals []Value, f func(row []Value) bool) {
	lo, hi := r.ProbeSpanComposite(cols, vals)
	r.EachShardRangeProbeComposite(lo, hi, cols, vals, f)
}

// EachShardRangeProbeComposite is EachShardRangeProbe for a composite key.
func (r *Relation) EachShardRangeProbeComposite(lo, hi int, cols []int, vals []Value, f func(row []Value) bool) {
	if r.subs == nil {
		r.eachWithKey(cols, vals, f)
		return
	}
	for s := lo; s < hi; s++ {
		if !r.subs[s].eachWithKey(cols, vals, f) {
			return
		}
	}
}

// eachWithKey visits the rows of a single-slab relation whose columns cols
// equal vals — the key's chain when an index over cols is registered, a
// filtered scan otherwise — and reports whether f let it finish.
func (r *Relation) eachWithKey(cols []int, vals []Value, f func(row []Value) bool) bool {
	if c, ok := r.ProbeComposite(cols, vals); ok {
		for row := c.First(); row >= 0; row = c.Next(row) {
			if !f(r.Row(row)) {
				return false
			}
		}
		return true
	}
	for off := 0; off < len(r.arena); off += r.arity {
		row := r.arena[off : off+r.arity : off+r.arity]
		if coversKey(row, cols, vals) && !f(row) {
			return false
		}
	}
	return true
}

// coversKey reports whether row matches the composite equality key.
func coversKey(row []Value, cols []int, vals []Value) bool {
	for ci, c := range cols {
		if row[c] != vals[ci] {
			return false
		}
	}
	return true
}

// EachShardRange calls f for every tuple of buckets [lo, hi) until f
// returns false — the scan surface of a bucket-span task (the adaptive
// fan-out hands each task a contiguous range of buckets when the delta is
// too small to justify one task per bucket). On an unpartitioned relation
// it visits every tuple.
func (r *Relation) EachShardRange(lo, hi int, f func(row []Value) bool) {
	if r.shardCount == 0 {
		r.Each(f)
		return
	}
	stopped := false
	for s := lo; s < hi && !stopped; s++ {
		r.EachShard(s, func(row []Value) bool {
			stopped = !f(row)
			return !stopped
		})
	}
}
