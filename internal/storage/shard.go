package storage

// This file implements hash-shard partitioning of relations: a registered
// shard key splits a relation's rows into a fixed number of buckets by hash
// of one column (the planned join key), maintained incrementally on every
// mutation exactly like the hash indexes. Shard partitions are views — row
// ids into the shared arena, never copies — so registering one changes
// neither the relation's content nor its mutation counter: the drift totals
// the plan cache's freshness policy observes are identical with and without
// sharding (see PredicateDB.DriftCounter).
//
// The parallel fixpoint driver uses the partitions to split one large rule
// into per-shard tasks: each task reads only its bucket of the delta
// relation, and the union of the buckets is exactly the relation (the
// property FuzzShardRouting checks), so the fan-out derives the same set of
// facts as the unsharded evaluation.

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

// SetShardKey registers (or reconfigures) the relation's shard partition:
// shards buckets keyed by hash of column col. Registration is idempotent for
// an identical configuration; a changed configuration rebuilds the buckets
// from the current arena and advances every bucket's mutation counter past
// any previously observable value (bucket contents may have been reassigned
// wholesale, and while the partition was off ShardMutations reported the
// relation-level counter — always >= every bucket counter — so the bump
// keeps per-bucket observations monotone across arbitrary off/on cycles).
// shards < 2 removes the partition.
//
// SetShardKey always selects the view mode: a physical relation (see
// physshard.go) is dissolved back to the flat layout first, preserving
// content and the observable mutation total.
func (r *Relation) SetShardKey(shards, col int) {
	if r.subs != nil {
		r.dissolvePhys()
	}
	if shards < 2 {
		r.shardCount, r.shardRows = 0, nil
		return
	}
	if col < 0 || col >= r.arity {
		panic("storage: shard key column out of range")
	}
	if r.shardCount == shards && r.shardCol == col {
		return
	}
	base := r.muts + 1
	for _, m := range r.shardMuts {
		if m+1 > base {
			base = m + 1
		}
	}
	if len(r.shardMuts) != shards {
		r.shardMuts = make([]uint64, shards)
	}
	for s := range r.shardMuts {
		if r.shardMuts[s] < base {
			r.shardMuts[s] = base
		}
	}
	r.shardCount, r.shardCol = shards, col
	r.shardRows = make([][]int32, shards)
	n := int32(r.Len())
	for row := int32(0); row < n; row++ {
		s := ShardOf(r.Row(row)[col], shards)
		r.shardRows[s] = append(r.shardRows[s], row)
	}
}

// ShardConfig returns the registered bucket count and key column, or (0, 0)
// when the relation is unpartitioned.
func (r *Relation) ShardConfig() (shards, col int) {
	if r.shardCount == 0 {
		return 0, 0
	}
	return r.shardCount, r.shardCol
}

// ShardLen returns the number of tuples in bucket s (the per-shard
// cardinality statistic). It returns the full length for unpartitioned
// relations so callers can treat them as a single bucket.
func (r *Relation) ShardLen(s int) int {
	if r.shardCount == 0 {
		return r.Len()
	}
	if r.subs != nil {
		return r.subs[s].Len()
	}
	return len(r.shardRows[s])
}

// EachShard calls f for every tuple of bucket s in insertion order until f
// returns false. On an unpartitioned relation it visits every tuple.
func (r *Relation) EachShard(s int, f func(row []Value) bool) {
	if r.shardCount == 0 {
		r.Each(f)
		return
	}
	if r.subs != nil {
		r.subs[s].Each(f)
		return
	}
	for _, row := range r.shardRows[s] {
		if !f(r.Row(row)) {
			return
		}
	}
}

// ShardRows returns bucket s's row ids in insertion order — the exact-bucket
// fast path for iterator-style executors (valid until the next mutation;
// callers must not mutate it, like Probe's result). It returns nil for
// unpartitioned and physically sharded relations (physical bucket rows live
// in the sub-relations — use PhysSubs).
func (r *Relation) ShardRows(s int) []int32 {
	if r.shardCount == 0 || r.subs != nil {
		return nil
	}
	return r.shardRows[s]
}

// ShardMutations returns bucket s's monotone mutation counter: it advances
// whenever a content change touches the bucket (an insert routed to it, or a
// relation-wide Clear/TruncateTo) and survives SetShardKey rebuilds that keep
// the bucket count, so equal observations bracket an unchanged bucket.
func (r *Relation) ShardMutations(s int) uint64 {
	if r.shardCount == 0 {
		return r.muts
	}
	if r.subs != nil {
		// Physical buckets own their insert counters; the parent component
		// carries the clear bumps and the monotonicity base across mode
		// transitions.
		return r.shardMuts[s] + r.subs[s].muts
	}
	return r.shardMuts[s]
}

// shardInsert routes a freshly inserted arena row into its bucket.
// Caller guarantees the relation is partitioned.
func (r *Relation) shardInsert(t []Value, row int32) {
	s := ShardOf(t[r.shardCol], r.shardCount)
	r.shardRows[s] = append(r.shardRows[s], row)
	r.shardMuts[s]++
}

// shardClear empties every bucket, advancing the counters of the buckets
// that held rows (mirroring Clear's only-if-content counter bump).
func (r *Relation) shardClear() {
	for s := range r.shardRows {
		if len(r.shardRows[s]) > 0 {
			r.shardMuts[s]++
		}
		r.shardRows[s] = r.shardRows[s][:0]
	}
}

// shardRebuild repartitions the arena prefix after TruncateTo. Every bucket's
// counter advances: truncation is a relation-wide content change and which
// buckets lost rows is not tracked.
func (r *Relation) shardRebuild() {
	for s := range r.shardRows {
		r.shardRows[s] = r.shardRows[s][:0]
		r.shardMuts[s]++
	}
	n := int32(r.Len())
	for row := int32(0); row < n; row++ {
		s := ShardOf(r.Row(row)[r.shardCol], r.shardCount)
		r.shardRows[s] = append(r.shardRows[s], row)
	}
}
