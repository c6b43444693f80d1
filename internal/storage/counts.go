package storage

// This file implements per-row reference counts — the storage substrate of
// counting-based incremental view maintenance (core.Apply / Server.IngestTx).
// A count is a base-fact assertion multiplicity: inserting a tuple that is
// already present through IncRef bumps its count instead of being dropped as
// a duplicate, and a retraction only becomes a physical delete when DecRef
// reaches zero. Derived (non-ground) rows carry count 1 — the engine does not
// count derivations (exact derivation counting is incompatible with the
// semi-naive duplicate elimination every executor relies on); recursive
// retraction instead goes through the DRed over-delete/rederive driver in
// internal/interp, which only needs ground counts to decide which base facts
// actually disappeared.
//
// Counting is opt-in per relation (EnableCounts) so every existing path pays
// at most one branch. Like indexes and histograms, the registration survives
// Clear; counts travel with rows through compactions (TruncateTo,
// DeleteRows). Count maintenance never touches a mutation
// counter — IncRef on a present row changes no relation content.

// EnableCounts switches the relation to counted mode, backfilling every
// current row with count 1 (rows are found through the row table every
// relation already has, so there is nothing else to build). Idempotent.
func (r *Relation) EnableCounts() {
	if r.countsOn {
		return
	}
	r.countsOn = true
	r.counts = make([]uint32, r.Len())
	for i := range r.counts {
		r.counts[i] = 1
	}
}

// CountsEnabled reports whether the relation is in counted mode.
func (r *Relation) CountsEnabled() bool { return r.countsOn }

// Count returns tuple t's assertion count, or 0 when t is absent (or
// counting is off).
func (r *Relation) Count(t []Value) uint32 {
	if !r.countsOn {
		return 0
	}
	row, ok := r.rowLookup(t)
	if !ok {
		return 0
	}
	return r.counts[row]
}

// CountAt is Count for a caller that already holds t's row id (RowOf).
func (r *Relation) CountAt(row int32) uint32 { return r.counts[row] }

// IncRef asserts tuple t once: a present row's count is bumped (returning
// false — no content change), an absent tuple is inserted with count 1
// (returning true, exactly like Insert). Requires counted mode.
func (r *Relation) IncRef(t []Value) bool {
	if row, ok := r.rowLookup(t); ok {
		r.counts[row]++
		return false
	}
	return r.Insert(t)
}

// DecRef retracts one assertion of tuple t, returning the remaining count
// and whether t was present. A count that reaches zero leaves the row in
// place — the caller batches zero-count rows into one DeleteRows compaction —
// and saturates there (a zombie row re-asserted before the compaction goes
// back to count 1 via IncRef).
func (r *Relation) DecRef(t []Value) (remaining uint32, ok bool) {
	row, found := r.rowLookup(t)
	if !found {
		return 0, false
	}
	if r.counts[row] > 0 {
		r.counts[row]--
	}
	return r.counts[row], true
}

// RowOf returns tuple t's row id in counted mode, or ok=false when counting
// is off.
func (r *Relation) RowOf(t []Value) (int32, bool) {
	if !r.countsOn {
		return -1, false
	}
	return r.rowLookup(t)
}

// rowLookup resolves t to its row id through the row table.
func (r *Relation) rowLookup(t []Value) (int32, bool) {
	if r.staged != 0 || !r.covered() {
		r.misuse("row lookup")
	}
	row, _ := r.tab.find(r.arena, t, hashRow(t))
	return row, row >= 0
}
