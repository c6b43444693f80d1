package storage

import (
	"fmt"
	"slices"
)

// Composite (multi-column) hash indexes. The paper's Carac builds one index
// per single filter/join column (§IV); this extension implements the
// auto-index-selection direction it cites (Subotić et al., VLDB'18) in a
// simplified form: indexes over column *sets*, chosen from the bound-column
// signatures that actually occur in rule bodies, so multi-key joins probe
// once instead of probing one column and filtering the rest.
//
// A composite index is the same chainIndex as a single-column one, over more
// columns: keys are hashed column by column and compared in the arena, never
// built, and maintained like one (on Derived's inserts, a delta's EnsureIndex).
// This file is the column-set surface of the API.

// BuildCompositeIndex registers (and backfills, but on a delta) a hash index
// over the given column set (order-insensitive; at least two columns — use
// BuildIndex for one). Registration survives Clear.
func (r *Relation) BuildCompositeIndex(cols []int) {
	if len(cols) < 2 {
		panic(fmt.Sprintf("storage: composite index on %q needs >= 2 columns, got %v", r.name, cols))
	}
	sorted := slices.Sorted(slices.Values(cols))
	for i, c := range sorted {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("storage: composite index column %d out of range for %q/%d", c, r.name, r.arity))
		}
		if i > 0 && sorted[i-1] == c {
			panic(fmt.Sprintf("storage: duplicate composite index column %d for %q", c, r.name))
		}
	}
	r.buildIndex(sorted)
}

// ProbeComposite returns the chain of rows whose columns cols (ascending)
// equal vals (in the same order). ok is false when no index over exactly cols
// exists, and the miss is counted (ProbeMisses). A stale index panics.
func (r *Relation) ProbeComposite(cols []int, vals []Value) (Chain, bool) {
	if len(cols) == 1 {
		return r.Probe(cols[0], vals[0])
	}
	ix := r.indexOn(cols)
	if ix == nil {
		probeMisses.Add(1)
		return Chain{}, false
	}
	if !r.current(ix) {
		r.stale("ProbeComposite", ix)
	}
	return Chain{head: ix.slots[ix.find(r.arena, r.arity, vals, ix.ident)].first, next: ix.next}, true
}

// DistinctCount returns the number of distinct values in column col as
// observed by its index, or -1 when col is unindexed or its index has not
// caught up with the rows (a delta not yet ensured). This is the cheap
// "online statistics" alternative the paper mentions (§IV, Selectivity): no
// extra maintenance cost because the index already exists.
func (r *Relation) DistinctCount(col int) int {
	ix := r.indexOn([]int{col})
	if ix == nil {
		return -1
	}
	if !r.current(ix) {
		return -1
	}
	return ix.used
}
