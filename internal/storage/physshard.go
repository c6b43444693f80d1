package storage

import (
	"fmt"
	"math"
)

// This file implements hash-shard partitioning. A relation has one of two
// layouts:
//
//   - flat: one arena, one row table — every relation outside a sharded run,
//     and Derived inside one (the workers only test membership in it, and
//     Emit stages in it, through the one row table);
//   - physical (SetShardKeyPhysical): shards fully independent sub-relations
//     keyed by hash of one column (the planned join key), each with its own
//     arena slab, row table, indexes, and mutation counter — the delta pair
//     of a sharded run, whose bucket tasks then scan and probe one slab each.
//
// Flat ↔ physical is the only transition. The parallel fixpoint driver
// splits one large rule into per-bucket-span tasks: each task reads only its
// buckets of the delta, and the union of the buckets is exactly the
// relation (the property FuzzShardRouting checks), so the fan-out derives
// the same set of facts as the unsharded evaluation.
//
// Duplicate elimination is the same structure in both layouts — the row
// table of rowtable.go, one per arena — and so are the reference counts, the
// histograms and the indexes, which live wherever the rows do. Every
// transition preserves the relation-level mutation counter exactly: for any
// operation sequence, Mutations() reports the same value the flat layout
// would have, so the drift totals the plan cache's freshness policy observes
// are identical with and without sharding.

// ShardOf returns the shard bucket of value v among shards buckets. The hash
// is a 32-bit avalanche mix (murmur3 finalizer) so consecutive integer keys —
// the common case for interned symbols and dense node ids — spread evenly
// instead of striping. shards must be positive.
func ShardOf(v Value, shards int) int {
	x := uint32(v)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return int(x % uint32(shards))
}

// resetContents drops all tuples and index entries without touching any
// mutation counter — the caller owns the accounting. retain keeps the arena,
// the row table and the indexes for a refill; otherwise Derived keeps its
// arena and a delta gives all three to the scratch pool (the capacity rules
// of rowTable and chainIndex). A pinned arena (an epoch view references it —
// physical buckets are pinned individually by PinRows) is detached to a
// fresh slab instead, so the refill never rewrites rows the view still
// serves, and is never given back.
func (r *Relation) resetContents(retain bool) {
	r.recall()
	r.repay()
	if retain {
		r.tab.reset(r.lazy)
	} else {
		r.tab.release(r.lazy)
	}
	switch {
	case r.detachPinned(0):
	case r.lazy && !retain:
		valueSlabs.give(r.arena)
		r.arena = nil
	default:
		r.arena = r.arena[:0]
	}
	r.histReset()
	r.counts = r.counts[:0]
	for i := range r.indexes {
		r.indexes[i].reset(retain, r.lazy)
	}
}

// SetShardKeyPhysical converts the relation to the physical layout: shards
// independent sub-relations keyed by hash of column col. Content and
// Mutations() are preserved exactly. Idempotent for an identical
// configuration; shards < 2 dissolves the partition back to the flat layout.
func (r *Relation) SetShardKeyPhysical(shards, col int) {
	if shards < 2 {
		shards, col = 0, 0
	} else if col < 0 || col >= r.arity {
		panic("storage: shard key column out of range")
	}
	if len(r.subs) == shards && r.shardCol == col {
		return
	}
	if r.subs != nil {
		r.dissolvePhys()
	}
	if shards == 0 {
		return
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
	r.subs, r.shardCol = subs, col
	// The re-inserts above advanced the sub counters by one per row; deduct
	// them from the parent component so the observable total is unchanged
	// (every arena row was one successful insert in the flat history too).
	r.muts = target - uint64(rows)
	// The flat slab was abandoned wholesale (rows moved into the buckets),
	// which satisfies any pinned epoch view or lender without a copy.
	r.repay()
	r.arena, r.pinned = nil, false
	r.tab.release(r.lazy)
	for i := range r.indexes {
		r.indexes[i].reset(false, r.lazy)
	}
	// Histogram counts moved into the bucket sub-relations with the rows;
	// the parent keeps an empty registration (HistogramOf sums the subs),
	// and likewise the reference counts moved with them.
	r.histReset()
	r.counts = nil
}

// dissolvePhys converts a physical relation back to the flat layout,
// preserving content and the observable mutation total.
func (r *Relation) dissolvePhys() {
	target := r.Mutations()
	subs := r.subs
	r.subs, r.shardCol = nil, 0
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

// bucket returns the sub-relation that owns tuple t on a physical relation.
func (r *Relation) bucket(t []Value) *Relation {
	return r.subs[ShardOf(t[r.shardCol], len(r.subs))]
}

// ShardConfig returns the bucket count and key column of a physical
// relation, or (0, 0) when the relation is flat.
func (r *Relation) ShardConfig() (shards, col int) {
	if r.subs == nil {
		return 0, 0
	}
	return len(r.subs), r.shardCol
}

// ShardLen returns the number of tuples in bucket s (the per-shard
// cardinality statistic). A flat relation reads as one bucket holding
// everything.
func (r *Relation) ShardLen(s int) int {
	if r.subs == nil {
		return r.Len()
	}
	return r.subs[s].Len()
}

// CheckShards panics unless the relation is physically partitioned into
// shards buckets: the delta a task restricted to a bucket span reads. Every
// predicate of a sharded run is partitioned into the run's bucket count (each
// on its own key column — the buckets cover the relation exactly whichever it
// is), so a mismatch is an engine-wiring bug, never a reason to filter rows
// by hash.
func (r *Relation) CheckShards(shards int) {
	if len(r.subs) != shards {
		panic(fmt.Sprintf("storage: a task over %d buckets reads %q, which has %d physical buckets",
			shards, r.name, len(r.subs)))
	}
}

// AllBuckets is the bucket bound past every bucket (Scan, ScanKey).
const AllBuckets = math.MaxInt32

// Scan and ScanKey are the read surface of a plan step: every executor and
// compiled backend reads a relation through them, so the bucket routing and
// the index-miss fallback live here once. Each takes a bucket span [lo, hi)
// and a row bound n, and each layout honours the one that means something to
// it: a flat relation visits its rows below n (Old's bound,
// PredicateDB.OldBound; AllRows for all of them) and has no buckets; a
// physical one visits its buckets in [lo, hi) (a pool task's share of a
// delta; 0, AllBuckets for all of them), and its row ids are bucket-local,
// so it has no bound.

// Scan calls f for every row the span and the bound admit, in insertion
// order (bucket-major on a physical relation), until f returns false.
func (r *Relation) Scan(lo, hi, n int, f func(row []Value) bool) {
	if r.subs == nil {
		r.scanBelow(n, f)
		return
	}
	for _, sub := range r.buckets(lo, hi) {
		if !sub.scanBelow(AllRows, f) {
			return
		}
	}
}

// ScanKey is Scan over the rows whose columns cols (ascending) equal vals.
// A single-slab relation walks the key's chain when an index over exactly
// cols is registered — chains run in insertion order, so the walk stops at
// the bound — and scans filtering otherwise (ProbeMisses counts it). On a
// physical relation a key on the shard key column routes to that key's one
// bucket, and each bucket visited answers from its own index. Like Probe, it
// panics on a registered index that has not caught up with the rows
// (EnsureIndex).
func (r *Relation) ScanKey(lo, hi, n int, cols []int, vals []Value, f func(row []Value) bool) {
	if r.subs == nil {
		r.eachWithKey(n, cols, vals, f)
		return
	}
	for ci, c := range cols {
		if c == r.shardCol {
			b := ShardOf(vals[ci], len(r.subs))
			lo, hi = max(lo, b), min(hi, b+1)
			break
		}
	}
	for _, sub := range r.buckets(lo, hi) {
		if !sub.eachWithKey(AllRows, cols, vals, f) {
			return
		}
	}
}

// buckets returns the sub-relations of a physical relation in [lo, hi).
func (r *Relation) buckets(lo, hi int) []*Relation {
	hi = min(hi, len(r.subs))
	return r.subs[min(lo, hi):hi]
}

// scanBelow visits the rows below n of a single-slab relation and reports
// whether f let it finish.
func (r *Relation) scanBelow(n int, f func(row []Value) bool) bool {
	for off, end := 0, r.below(n); off < end; off += r.arity {
		if !f(r.arena[off : off+r.arity : off+r.arity]) {
			return false
		}
	}
	return true
}

// eachWithKey visits the rows below n of a single-slab relation whose
// columns cols equal vals — the key's chain when an index over cols is
// registered, a filtered scan otherwise — and reports whether f let it
// finish.
func (r *Relation) eachWithKey(n int, cols []int, vals []Value, f func(row []Value) bool) bool {
	if c, ok := r.ProbeComposite(cols, vals); ok {
		for row := c.First(); row >= 0 && int(row) < n; row = c.Next(row) {
			if !f(r.Row(row)) {
				return false
			}
		}
		return true
	}
	for off, end := 0, r.below(n); off < end; off += r.arity {
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
