package storage

import (
	"math/bits"
	"slices"
)

// This file implements batched physical deletion — the one destructive
// operation that removes individual rows rather than a suffix or everything.
// It exists for incremental maintenance (core.Apply / Server.IngestTx): a
// transaction's retractions are collected (count-gated by DecRef) and applied
// — as tuples (DeleteRows) or, when the caller already holds them as a bitset
// over row ids (DeleteRowIDs), as that bitset — in ONE stable compaction per
// relation, rebuilding the derived structures — row table, indexes,
// composites, histograms — the same way TruncateTo does, and
// advancing the mutation counter once per batch (one logical content change,
// exactly like Clear).
//
// Epoch safety: a pinned arena (an EpochRows view references it) is never
// compacted in place — the survivors move to a fresh slab and the old one is
// left to the epoch's readers, the same copy-on-flip discipline as the other
// destructive operations (epoch.go).

// DeleteRows removes every currently present tuple of tuples from r in one
// batch, returning the number of rows removed and how many of those had row
// ids below boundary (the ground-fact arena prefix — callers shrink their
// baseline watermark by removedBelow). Tuples that are absent are ignored;
// when nothing is present the relation — including its mutation counters —
// is untouched.
func (r *Relation) DeleteRows(tuples [][]Value, boundary int) (removed, removedBelow int) {
	if len(tuples) == 0 {
		return 0, 0
	}
	if r.staged != 0 {
		r.misuse("DeleteRows")
	}
	removed, removedBelow = r.deleteCompact(tuples, boundary)
	if removed > 0 {
		r.muts++
	}
	return removed, removedBelow
}

// AssertAt is the insertion half of ground maintenance: it asserts tuples as
// ground facts while keeping the ground-fact arena prefix invariant (rows
// [0, boundary) are ground). A tuple already present below boundary just
// gains an assertion (count++, no content change); one present at or above
// boundary — a derived row being promoted to a ground fact — is relocated
// into the prefix with the batch's assertions as its count (its previous
// count 1 recorded presence, not assertion); an absent tuple
// is spliced in at the prefix with count 1 (repeats within the batch bump
// the count instead). Returns the distinct newly inserted tuples in
// first-occurrence order and the number of promotions — the caller's ground
// watermark grows by len(added)+promoted. Switches the relation to counted
// mode if it was not already.
func (r *Relation) AssertAt(tuples [][]Value, boundary int) (added [][]Value, promoted int) {
	if len(tuples) == 0 {
		return nil, 0
	}
	r.EnableCounts()
	n := r.Len()
	if boundary > n {
		boundary = n
	}
	// Fold the batch first, so repeated assertions of one tuple become its
	// multiplicity instead of duplicate rows: a counted scratch relation holds
	// the distinct tuples in first-occurrence order with their counts.
	batch := NewRelation(r.name, r.arity)
	batch.EnableCounts()
	for _, t := range tuples {
		batch.IncRef(t)
	}
	// mid lists the batch rows entering the prefix, in batch order; reloc the
	// rows of r they replace (derived rows promoted to ground facts).
	var mid, reloc []int32
	for i := int32(0); i < int32(batch.Len()); i++ {
		t := batch.Row(i)
		row, ok := r.rowLookup(t)
		switch {
		case ok && int(row) < boundary:
			r.counts[row] += batch.counts[i]
			continue
		case ok:
			reloc = append(reloc, row)
			promoted++
		default:
			added = append(added, t)
		}
		mid = append(mid, i)
	}
	if len(mid) == 0 {
		return nil, 0 // pure count bumps: no content or structure change
	}
	slices.Sort(reloc)
	// Rebuild onto a fresh slab — splicing always moves rows, and a fresh
	// slab doubles as the copy-on-flip for any pinned epoch readers.
	total := n - len(reloc) + len(mid)
	dst := make([]Value, 0, total*r.arity)
	cnts := make([]uint32, 0, total)
	dst = append(dst, r.arena[:boundary*r.arity]...)
	cnts = append(cnts, r.counts[:boundary]...)
	for _, i := range mid {
		dst = append(dst, batch.Row(i)...)
		cnts = append(cnts, batch.counts[i])
	}
	for i := boundary; i < n; i++ {
		if len(reloc) > 0 && int(reloc[0]) == i {
			reloc = reloc[1:]
			continue
		}
		dst = append(dst, r.Row(int32(i))...)
		cnts = append(cnts, r.counts[i])
	}
	r.arena = dst
	r.pinned = false
	r.counts = cnts
	r.reindexRows()
	if len(added) > 0 {
		r.muts++ // one logical content change per batch, like DeleteRows
	}
	return added, promoted
}

// DeleteRowIDs is DeleteRows for a caller that already holds the doomed rows
// as a bitset over row ids — retraction's doomed set, bit i for row i — so no
// tuple is looked up a second time and no id is sorted: the bits are the
// batch, distinct and in order. Bits past dead's length are clear; every set
// bit must name a current row of r. removedBelow is the popcount under
// boundary.
func (r *Relation) DeleteRowIDs(dead []uint64, boundary int) (removed, removedBelow int) {
	if r.staged != 0 {
		r.misuse("DeleteRowIDs")
	}
	removed, removedBelow = r.compactRows(dead, boundary)
	if removed > 0 {
		r.muts++
	}
	return removed, removedBelow
}

// deleteCompact resolves the doomed tuples through the row table (one lookup
// per tuple, absent ones dropped) into a bitset and compacts them away.
func (r *Relation) deleteCompact(tuples [][]Value, boundary int) (removed, removedBelow int) {
	var dead []uint64
	for _, t := range tuples {
		if row, ok := r.rowLookup(t); ok {
			if dead == nil {
				dead = make([]uint64, (r.Len()+63)/64)
			}
			dead[row>>6] |= 1 << (row & 63) // a row may repeat within the batch
		}
	}
	return r.compactRows(dead, boundary)
}

// compactRows performs the single-slab compaction: move the survivors of the
// dead rows (a bitset over row ids) down in runs (or onto a fresh slab when
// pinned) and rebuild every derived structure. The caller owns all
// mutation-counter accounting.
func (r *Relation) compactRows(dead []uint64, boundary int) (removed, removedBelow int) {
	for wi, w := range dead {
		n := bits.OnesCount64(w)
		removed += n
		switch lo := wi << 6; {
		case lo+64 <= boundary:
			removedBelow += n
		case lo < boundary:
			removedBelow += bits.OnesCount64(w & (1<<(boundary-lo) - 1))
		}
	}
	if removed == 0 {
		return 0, 0
	}
	// Stable compaction, one run of survivors at a time. In place, the write
	// offset never passes the read offset; a pinned slab flips to a fresh one
	// and stays with its epoch.
	r.recall()
	n, ar := r.Len(), r.arity
	src := r.arena
	var dst []Value
	if r.pinned {
		r.repay()
		r.pinned = false
		dst = make([]Value, 0, (n-removed)*ar)
	} else {
		dst = r.arena[:0]
	}
	cw, from := 0, 0
	keep := func(to int) {
		dst = append(dst, src[from*ar:to*ar]...)
		if r.countsOn {
			cw += copy(r.counts[cw:], r.counts[from:to])
		}
	}
	for wi, w := range dead {
		for ; w != 0; w &= w - 1 {
			row := wi<<6 + bits.TrailingZeros64(w)
			keep(row)
			from = row + 1
		}
	}
	keep(n)
	r.arena = dst
	if r.countsOn {
		r.counts = r.counts[:cw]
	}
	r.reindexRows()
	return removed, removedBelow
}
