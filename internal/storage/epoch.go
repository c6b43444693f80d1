package storage

import "sort"

// This file is the storage half of the serving epoch protocol (core.Serve):
// an epoch pins an immutable view of every relation's ground rows so
// concurrent reader sessions can keep iterating it while the single writer
// ingests the next fact batch. The contract has two sides:
//
//   - PinRows hands out a capacity-clipped view of the arena and marks the
//     relation pinned. Appends remain legal while pinned — they touch only
//     memory beyond the view (or a freshly allocated slab), never the rows a
//     reader can see.
//   - The destructive operations (TruncateTo, Clear, ClearRetain) flip to a
//     fresh arena when the relation is pinned ("copy-on-flip") instead of
//     rewriting the old slab in place: the baseline rewind between fact
//     batches re-appends over the truncated region, which would otherwise
//     overwrite rows a pinned epoch is still serving.
//
// The epoch counter itself lives on the Catalog: AdvanceEpoch marks every
// boundary at which a consistent snapshot (rows plus statistics) is taken —
// each Run of a Program, and each published epoch of a serving Program.

// EpochRows is an immutable row snapshot of one relation, taken at an epoch
// boundary by Relation.PinRows. It stays valid — and byte-identical — for
// the lifetime of the epoch regardless of later inserts, truncations, or
// clears on the source relation. The view is zero-copy: a capacity-clipped
// slice of the relation's arena.
type EpochRows struct {
	arena []Value
	arity int
}

// Arity returns the tuple width.
func (e EpochRows) Arity() int { return e.arity }

// Len returns the number of pinned tuples.
func (e EpochRows) Len() int {
	if e.arity == 0 {
		return 0
	}
	return len(e.arena) / e.arity
}

// Row returns a read-only view of row i. Callers must not mutate it.
func (e EpochRows) Row(i int) []Value {
	off := i * e.arity
	return e.arena[off : off+e.arity : off+e.arity]
}

// Each calls f for every pinned tuple until f returns false.
func (e EpochRows) Each(f func(row []Value) bool) {
	for off := 0; off+e.arity <= len(e.arena); off += e.arity {
		if !f(e.arena[off : off+e.arity : off+e.arity]) {
			return
		}
	}
}

// PinRows captures the relation's current rows as an immutable EpochRows
// view and marks the relation pinned, so the next destructive operation
// flips to a fresh arena instead of rewriting the slab the view references.
func (r *Relation) PinRows() EpochRows {
	r.pinned = true
	return EpochRows{arena: r.arena[:len(r.arena):len(r.arena)], arity: r.arity}
}

// Pinned reports whether an epoch view currently pins the arena (cleared by
// the next destructive operation's copy-on-flip).
func (r *Relation) Pinned() bool { return r.pinned }

// detachPinned implements copy-on-flip for the destructive operations: when
// an epoch view pins the arena, or it is borrowed, move the retained prefix
// (keepVals values) onto a fresh slab and leave the old one to the epoch's
// readers or its lender. Reports whether a flip happened — if not, the
// caller performs its usual in-place truncation.
func (r *Relation) detachPinned(keepVals int) bool {
	if !r.pinned {
		return false
	}
	kept := r.arena[:keepVals]
	r.repay()
	r.pinned = false
	fresh := make([]Value, keepVals)
	copy(fresh, kept)
	r.arena = fresh
	return true
}

// HistogramColumns returns the registered histogram columns in ascending
// order (mirroring IndexedColumns; used by statistics snapshots).
func (r *Relation) HistogramColumns() []int {
	cols := make([]int, 0, len(r.histograms))
	for c := range r.histograms {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// Epoch returns the catalog's current epoch generation. Epoch 0 is the
// pre-first-boundary state; every Run and every published serving epoch
// advances it.
func (c *Catalog) Epoch() uint64 { return c.epoch }

// AdvanceEpoch marks an epoch boundary — the instant at which a consistent
// snapshot of rows and statistics may be taken — and returns the new
// generation. Callers (core.Program) must hold the single-writer lock.
func (c *Catalog) AdvanceEpoch() uint64 {
	c.epoch++
	return c.epoch
}
