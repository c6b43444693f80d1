package storage

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Relation stores a set of fixed-arity tuples in insertion order with exact
// duplicate elimination and optional incremental hash indexes over one column
// or several.
//
// Rows live in a flat []Value arena so scans are sequential and
// allocation-light. Tuple identity has one structure, whatever the arity,
// layout or counting mode: the row table (rowtable.go), an open-addressing
// table of row ids keyed by the rows' own bytes in the arena. Insert,
// Contains, the counted operations (IncRef/DecRef/Count/RowOf) and the
// deletion compaction all resolve a tuple through its find; Clear,
// ClearRetain, TruncateTo, DeleteRows and AssertAt empty or rebuild it in
// place, so a relation refilled every iteration or every Run allocates
// nothing for dedup once warm. Lookups only load, which is why concurrent
// Contains on a relation nobody is mutating is safe.
//
// Join indexes have one structure too, over one column or several: the
// chained hash index (chainindex.go, which also states which destructive
// operations keep an index's memory). A predicate's relations carry only the
// indexes some plan reads from them (PredicateDB.RegisterIndex): Derived
// those an atom reading Full or Old probes, the deltas those an atom reading
// δ probes. On Derived, a registered index links the rows already there in
// one pass and is then maintained incrementally on every insert, which is
// how Carac builds indexes per rule "incrementally before execution begins"
// (paper §IV, Index selection); a delta links no row as it arrives, and
// EnsureIndex catches an index up in one sized pass right before a plan
// probes it. Probes only load; one of an index that has not caught up
// panics.
//
// Semi-naive evaluation uses the row table of Derived as its only duplicate
// elimination (PredicateDB.Emit): a row found in an iteration is staged —
// entered in the row table and written into the arena's spare capacity past
// its length — so Contains sees it at once while Len, Each, Row, the probes
// and PinRows keep seeing the rows of the iteration's start
// until publish (SwapClear) makes it a row. That staged row is the fact's
// only copy: a flat δ′ holds no rows but is owed them (owe), and at the
// rotation it borrows them (borrow) — δ is then a capacity-clipped view of
// Derived's newest rows, which δ reads, scans and indexes like rows of its
// own and copies before any write, and which Derived recalls (recall) before
// it rewrites rows in place. Insert, Contains, RowOf, TruncateTo and Clear
// panic on a relation in a state they would answer wrongly (misuse).
//
// A delta that holds rows of its own — a δ′ seeded row by row,
// retraction's frontiers and candidates — is an append-only list (AppendDistinct) whose arena its row table does not
// cover. AppendDistinct is also the one bulk load for rows a caller already
// knows to be distinct — retraction's, deduplicated by its doomed bitset:
// Reserve sizes the arena and the index links for a batch of known size
// once, the rows are appended without a probe, and Seal, only if something
// will ask the list for membership, builds its row table in one sized pass.
//
// Capacity: Derived keeps its memory, and a delta gives its own arena, row
// table and index memory to the scratch pool on Clear (scratch.go), and a
// borrowed arena back to its lender; ClearRetain keeps them for a refill
// that follows at once (rowtable.go, chainindex.go).
type Relation struct {
	name  string
	arity int

	arena  []Value  // len = count*arity; staged rows follow in the spare capacity
	staged int      // rows staged past len(arena) (stage / publish)
	tab    rowTable // row ids of the arena's rows, published and staged, by row content

	indexes    []chainIndex       // one per registered column set, in registration order
	histograms map[int]*Histogram // column -> value-distribution histogram

	// lazy marks a delta (δ, δ′): its indexes link rows only on EnsureIndex.
	// It travels with the struct through SwapDeltas.
	lazy bool

	// muts counts content-changing operations (successful inserts, Clear,
	// TruncateTo) monotonically — it is never reset, so equal observations
	// guarantee unchanged content. The statistics subsystem aggregates it
	// into per-predicate drift counters.
	muts uint64

	// pinned marks the arena as referenced by an EpochRows view (PinRows),
	// or as borrowed: the next destructive operation must flip to a fresh
	// arena instead of rewriting the pinned slab in place (epoch.go,
	// copy-on-flip).
	pinned bool

	// Loans (borrow): a flat δ whose rows are a capacity-clipped view of
	// Derived's newest rows names its lender; the lender lists its borrowers
	// and recalls their rows before it rewrites its own in place.
	lender    *Relation
	lentFrom  int // the lender's row the view starts at
	borrowers []*Relation

	// owed counts the rows a flat δ′ that holds none of its own is to borrow
	// at the next SwapClear (PredicateDB.Emit, SeedAll): Derived's newest.
	// Until then it accepts no write and no lookup; Clear forgets them.
	owed int

	// Reference-count state (counts.go): enabled per relation by
	// EnableCounts, off everywhere else so the hot insert path pays one
	// branch. counts[i] is row i's assertion count, found through the row
	// table like everything else. Counts travel with rows through every
	// compaction.
	countsOn bool
	counts   []uint32
}

// NewRelation creates an empty relation with the given name and arity.
// Arity must be at least 1.
func NewRelation(name string, arity int) *Relation {
	if arity < 1 {
		panic(fmt.Sprintf("storage: relation %q needs arity >= 1, got %d", name, arity))
	}
	return &Relation{name: name, arity: arity, tab: newRowTable()}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples currently stored.
func (r *Relation) Len() int { return len(r.arena) / r.arity }

// Empty reports whether the relation holds no tuples.
func (r *Relation) Empty() bool { return r.Len() == 0 }

// Insert adds tuple t, returning true if it was not already present.
// It panics if len(t) differs from the relation arity.
func (r *Relation) Insert(t []Value) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: insert arity %d into %q/%d", len(t), r.name, r.arity))
	}
	if r.staged != 0 || r.owed != 0 || !r.covered() {
		r.misuse("Insert")
	}
	h := hashRow(t)
	found, slot := r.tab.find(r.arena, t, h)
	if found >= 0 {
		return false
	}
	row := int32(r.tab.used)
	r.appendRow(t)
	r.tab.add(r.arena, r.arity, slot, row, h, r.lazy)
	r.added(t, row)
	return true
}

// Contains reports whether tuple t is present or staged. The lookup reads
// the row table and the arena and writes nothing, so concurrent Contains
// calls on an otherwise-unmutated relation are safe — the parallel rule
// executor's workers probe frozen Derived relations concurrently.
func (r *Relation) Contains(t []Value) bool {
	if len(t) != r.arity {
		return false
	}
	if r.owed != 0 {
		r.misuse("Contains")
	}
	arena := r.arena
	if r.staged != 0 {
		arena = arena[:len(arena)+r.staged*r.arity]
	}
	if r.tab.used*r.arity != len(arena) {
		r.misuse("Contains")
	}
	row, _ := r.tab.find(arena, t, hashRow(t))
	return row >= 0
}

// stage enters t, unless it is a row or staged already, into the row table
// under the next row id past the staged rows and writes it into the arena's
// spare capacity, leaving the arena's length alone; it reports whether t was
// new. A table that grows re-enters the staged rows with the rest.
func (r *Relation) stage(t []Value) bool {
	if len(t) != r.arity || !r.covered() {
		r.misuse("stage")
	}
	n := len(r.arena)
	ext := r.arena[:n+r.staged*r.arity]
	h := hashRow(t)
	found, slot := r.tab.find(ext, t, h)
	if found >= 0 {
		return false
	}
	ext = append(ext, t...)
	r.arena = ext[:n]
	r.staged++
	r.tab.add(ext, r.arity, slot, int32(r.tab.used), h, r.lazy) // covered: used is the next row id
	return true
}

// publish makes the staged rows rows, in staging order: the arena's length
// covers them and added does the rest of what Insert would have — nothing
// is looked up again. A batch sizes the index links to the rows they will
// link, once (chainIndex.reserve).
func (r *Relation) publish() {
	to := r.tab.used
	from := to - r.staged
	r.arena = r.arena[:to*r.arity]
	if r.staged > 1 && !r.lazy {
		for i := range r.indexes {
			r.indexes[i].reserve(to, false)
		}
	}
	r.staged = 0
	for row := from; row < to; row++ {
		r.added(r.Row(int32(row)), int32(row))
	}
}

// unstage forgets the staged rows: the row table is rebuilt over the
// published ones.
func (r *Relation) unstage() {
	if r.staged == 0 {
		return
	}
	r.staged = 0
	r.tab.reset(r.lazy)
	r.tab.fill(r.arena, r.arity, r.lazy)
}

// AppendDistinct appends t without consulting or filling the row table, for
// a caller that guarantees t is not in the relation: the write of a δ′ that
// holds rows of its own, whose rows were deduplicated where they were staged
// or are seeds handed over once, and retraction's, deduplicated by
// its doomed bitset. It leaves the relation a list that only Clear, the
// scans, the probes and Seal accept.
func (r *Relation) AppendDistinct(t []Value) {
	if r.owed != 0 {
		r.misuse("AppendDistinct")
	}
	row := int32(len(r.arena) / r.arity)
	r.appendRow(t)
	r.added(t, row)
}

// appendRow appends t to the arena. A delta's arena grows into a slab from
// the scratch pool, giving the old one back unless an epoch view pins it.
func (r *Relation) appendRow(t []Value) {
	if r.lazy && len(r.arena)+len(t) > cap(r.arena) {
		r.growArena(max(2*cap(r.arena), len(r.arena)+len(t), 16*r.arity))
	}
	r.arena = append(r.arena, t...)
}

// growArena moves a delta's arena into a scratch slab of at least n values;
// a pinned one stays with its view, a borrowed one with its lender, and the
// new slab is unpinned.
func (r *Relation) growArena(n int) {
	rows := r.arena
	r.repay()
	arena := append(valueSlabs.take(n), rows...)
	if !r.pinned {
		valueSlabs.give(r.arena)
	}
	r.arena, r.pinned = arena, false
}

// borrow makes rows [from, Len) of lender, a flat Derived, the rows of r, a
// flat delta that holds none of its own and is owed them: r's empty slab goes
// to the scratch pool, and its arena becomes a capacity-clipped view of
// lender's — the view PinRows gives an epoch. The view follows the pinned
// rules: it is never given to the pool, and r copies it before any write
// (growArena). The lender's appends land past the view; before it rewrites
// rows in place it recalls them (recall). Registered histograms are filled
// in one pass; indexes link nothing until EnsureIndex, as on any delta. The
// mutations were counted as the rows were owed.
func (r *Relation) borrow(lender *Relation, from int) {
	n := len(lender.arena)
	valueSlabs.give(r.arena)
	r.arena = lender.arena[from*r.arity : n : n]
	r.pinned, r.lender, r.lentFrom, r.owed = true, lender, from, 0
	lender.borrowers = append(lender.borrowers, r)
	for off := 0; r.histograms != nil && off < len(r.arena); off += r.arity {
		r.histInsert(r.arena[off : off+r.arity])
	}
}

// repay ends r's loan, if it has one: r holds no rows, and the lender
// forgets it.
func (r *Relation) repay() {
	l := r.lender
	if l == nil {
		return
	}
	i := slices.Index(l.borrowers, r)
	l.borrowers[i] = l.borrowers[len(l.borrowers)-1]
	l.borrowers[len(l.borrowers)-1] = nil
	l.borrowers = l.borrowers[:len(l.borrowers)-1]
	r.arena, r.lender, r.pinned = nil, nil, false
}

// recall gives every borrower of r its rows as its own, copied into a
// scratch slab, before r rewrites rows in place. The operations that do are
// Clear, TruncateTo and the deletion compactions; the deltas are normally
// emptied first (core's baseline rewind), and then there is nothing to
// recall.
func (r *Relation) recall() {
	for len(r.borrowers) > 0 {
		b := r.borrowers[0]
		b.growArena(len(b.arena))
	}
}

// Reserve makes room for n more rows of a bulk load: the arena and every
// index's links (a delta's wait for EnsureIndex) grow once, to size
// (chainIndex.reserve), instead of by steps.
func (r *Relation) Reserve(n int) {
	if n <= 0 {
		return
	}
	if r.lazy {
		if need := len(r.arena) + n*r.arity; need > cap(r.arena) {
			r.growArena(need)
		}
		return
	}
	r.arena = slices.Grow(r.arena, n*r.arity)
	for i := range r.indexes {
		r.indexes[i].reserve(r.Len()+n, false)
	}
}

// Seal makes a list (AppendDistinct) a set: its row table is built over the
// arena in one sized pass (rowTable.fill), after which Contains, Insert and
// RowOf accept it. A set is left as it is. Rows staged or a table covering
// only part of the rows panic.
func (r *Relation) Seal() {
	if r.staged != 0 || r.owed != 0 || (r.tab.used != 0 && !r.covered()) {
		r.misuse("Seal")
	}
	if r.tab.used == 0 {
		r.tab.fill(r.arena, r.arity, r.lazy)
	}
}

// added accounts for arena row row, content t, which the caller has just
// made a row: a mutation, a count of 1, histograms and index chains.
func (r *Relation) added(t []Value, row int32) {
	r.muts++
	if r.countsOn {
		r.counts = append(r.counts, 1)
	}
	r.indexRow(t, row)
}

// covered reports whether the row table holds exactly the arena's rows,
// published and staged.
func (r *Relation) covered() bool {
	return r.tab.used*r.arity == len(r.arena)+r.staged*r.arity
}

// misuse panics for an operation the relation's state would make answer
// wrongly: a lookup on a list (AppendDistinct), anything but Contains on a
// relation with staged rows, or anything but Clear on a δ′ owed rows.
func (r *Relation) misuse(op string) {
	if r.owed != 0 {
		panic(fmt.Sprintf("storage: %s on %q: it is owed %d rows of Derived until SwapClear lends them",
			op, r.name, r.owed))
	}
	panic(fmt.Sprintf("storage: %s on %q: its row table holds %d entries for %d rows and %d staged",
		op, r.name, r.tab.used, r.Len(), r.staged))
}

// lends reports whether the relation, a delta, holds no rows of its own: as
// δ′ it is owed its rows instead of copying them (Emit).
func (r *Relation) lends() bool { return len(r.arena) == 0 }

// owe counts n more rows δ′ is owed, each a mutation as its copy would be.
func (r *Relation) owe(n int) {
	r.owed += n
	r.muts += uint64(n)
}

// Row returns a view of row i (valid until the next Insert reallocates the
// arena; callers must not mutate it).
func (r *Relation) Row(i int32) []Value {
	off := int(i) * r.arity
	_ = r.arena[off+r.arity-1] // a staged row is past the length, not a row
	return r.arena[off : off+r.arity : off+r.arity]
}

// Each calls f for every tuple, in insertion order, until f returns false.
func (r *Relation) Each(f func(row []Value) bool) { r.Scan(0, AllRows, f) }

// AllRows is the row bound past every row (Scan, ScanKey).
const AllRows = math.MaxInt32

// below returns the arena offset where the rows below n end.
func (r *Relation) below(n int) int {
	if n < len(r.arena)/r.arity {
		return n * r.arity
	}
	return len(r.arena)
}

// Scan and ScanKey are the read surface of a plan step: every executor and
// compiled backend reads a relation through them, so the row range and the
// index-miss fallback live here once. Each visits the rows [from, to) in
// insertion order: Old is [0, PredicateDB.OldBound), a pool task's share of
// a δ of L rows is its morsel (Morsel), and all rows are [0, AllRows).

// Morsel returns the row range [L·lo/n, L·hi/n) that task lo..hi of n reads
// of a relation holding rows rows: the tasks 0..1, 1..2, …, n-1..n cover the
// rows exactly once, in contiguous ranges whose sizes differ by at most one.
func Morsel(rows, lo, hi, n int) (from, to int) {
	return rows * lo / n, rows * hi / n
}

// Scan calls f for every row in [from, to), in insertion order, until f
// returns false.
func (r *Relation) Scan(from, to int, f func(row []Value) bool) {
	for off, end := from*r.arity, r.below(to); off < end; off += r.arity {
		if !f(r.arena[off : off+r.arity : off+r.arity]) {
			return
		}
	}
}

// ScanKey is Scan over the rows whose columns cols (ascending) equal vals.
// It walks the key's chain when an index over exactly cols is registered —
// chains run in insertion order, so the walk skips the rows below from and
// stops at to — and scans filtering otherwise (ProbeMisses counts it). Like
// Probe, it panics on a registered index that has not caught up with the
// rows (EnsureIndex).
func (r *Relation) ScanKey(from, to int, cols []int, vals []Value, f func(row []Value) bool) {
	if c, ok := r.ProbeComposite(cols, vals); ok {
		row := c.First()
		for row >= 0 && int(row) < from {
			row = c.Next(row)
		}
		for ; row >= 0 && int(row) < to; row = c.Next(row) {
			if !f(r.Row(row)) {
				return
			}
		}
		return
	}
	for off, end := from*r.arity, r.below(to); off < end; off += r.arity {
		row := r.arena[off : off+r.arity : off+r.arity]
		if coversKey(row, cols, vals) && !f(row) {
			return
		}
	}
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

// BuildIndex registers (and, except on a delta, backfills) a hash index on
// column col. Indexes persist across Clear: the registration survives, the
// entries are dropped.
func (r *Relation) BuildIndex(col int) {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("storage: index column %d out of range for %q/%d", col, r.name, r.arity))
	}
	r.buildIndex([]int{col})
}

// buildIndex registers (and backfills) an index over the ascending set cols.
func (r *Relation) buildIndex(cols []int) {
	if r.indexOn(cols) != nil {
		return
	}
	r.indexes = append(r.indexes, newChainIndex(cols))
	if !r.lazy {
		r.catchUp(&r.indexes[len(r.indexes)-1])
	}
}

// EnsureIndex links the rows the index over cols (ascending) lacks, in order,
// into links sized once: its chains are then those of an index maintained on
// every append. A current index or no registration costs nothing. Only the
// relation's mutating goroutine calls it.
func (r *Relation) EnsureIndex(cols []int) {
	if ix := r.indexOn(cols); ix != nil {
		r.catchUp(ix)
	}
}

// EnsureIndexes is EnsureIndex for every registered index.
func (r *Relation) EnsureIndexes() {
	for i := range r.indexes {
		r.EnsureIndex(r.indexes[i].cols)
	}
}

// catchUp links the rows that ix does not link yet.
func (r *Relation) catchUp(ix *chainIndex) {
	n := r.Len()
	if len(ix.next) == n {
		return
	}
	ix.reserve(n, r.lazy)
	for row := int32(len(ix.next)); row < int32(n); row++ {
		ix.add(r.arena, r.arity, row, r.lazy)
	}
}

// current reports whether ix links every row.
func (r *Relation) current(ix *chainIndex) bool { return len(ix.next)*r.arity == len(r.arena) }

// stale panics for a probe of an index that misses rows (EnsureIndex).
func (r *Relation) stale(op string, ix *chainIndex) {
	panic(fmt.Sprintf("storage: %s on %q: its index on %v links %d of %d rows (EnsureIndex)",
		op, r.name, ix.cols, len(ix.next), r.Len()))
}

// indexOn returns the index over exactly the ascending set cols, or nil.
func (r *Relation) indexOn(cols []int) *chainIndex {
	for i := range r.indexes {
		if slices.Equal(r.indexes[i].cols, cols) {
			return &r.indexes[i]
		}
	}
	return nil
}

// IndexedColumns returns the single-column index columns in ascending order.
func (r *Relation) IndexedColumns() []int {
	var cols []int
	for i := range r.indexes {
		if c := r.indexes[i].cols; len(c) == 1 {
			cols = append(cols, c[0])
		}
	}
	slices.Sort(cols)
	return cols
}

// Probe returns the chain of rows whose column col equals v. ok is false if no
// index is registered on col, and the caller degrades to a filtered scan,
// which stays correct (ProbeMisses counts them). A stale index panics
// (EnsureIndex).
func (r *Relation) Probe(col int, v Value) (Chain, bool) {
	for i := range r.indexes {
		if ix := &r.indexes[i]; len(ix.cols) == 1 && ix.cols[0] == col {
			if !r.current(ix) {
				r.stale("Probe", ix)
			}
			return ix.probe1(r.arena, r.arity, v), true
		}
	}
	probeMisses.Add(1)
	return Chain{}, false
}

// probeMisses counts the probes (Probe, ProbeComposite) that found no index
// over their columns.
var probeMisses atomic.Int64

// ProbeMisses returns how many probes, process-wide, found no index over
// their columns and were answered by a filtered scan instead: a plan step
// that reads its relation through an access path the relation does not
// carry. Plans choose their probes from the registration of the relations
// they read, so an engine run leaves it where it was.
func ProbeMisses() int64 { return probeMisses.Load() }

// Mutations returns the relation's monotone mutation counter: it advances on
// every successful Insert, Clear, and TruncateTo and is never reset, so two
// equal observations bracket a window in which the content did not change.
func (r *Relation) Mutations() uint64 { return r.muts }

// Clear removes all tuples but keeps index registrations, for a
// relation that stays empty for a while: Derived empties its arena in place
// and gives the row table and the indexes' memory back to the collector, a
// delta gives all three to the scratch pool.
func (r *Relation) Clear() { r.clear(false) }

// ClearRetain is Clear with the row table and the indexes emptied in place,
// for a relation that is refilled at once — δ′ inside a running fixpoint, a
// retraction frontier — and then allocates nothing (the capacity rules of
// rowTable and chainIndex).
func (r *Relation) ClearRetain() { r.clear(true) }

func (r *Relation) clear(retain bool) {
	if r.staged != 0 {
		r.misuse("Clear")
	}
	if len(r.arena) > 0 || r.owed > 0 {
		r.muts++
	}
	r.owed = 0
	r.resetContents(retain)
}

// resetContents drops all tuples and index entries without touching any
// mutation counter — the caller owns the accounting. retain keeps the arena,
// the row table and the indexes for a refill; otherwise Derived keeps its
// arena and a delta gives all three to the scratch pool (the capacity rules
// of rowTable and chainIndex). A pinned arena (an epoch view references it)
// is detached to a fresh slab instead, so the refill never rewrites rows the
// view still serves, and is never given back.
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

// TruncateTo discards all but the first n tuples, rebuilding the row table
// and indexes. It supports resetting a relation to its ground-fact baseline
// between repeated runs (ground facts are always inserted before any
// derivation, so they occupy the arena prefix).
func (r *Relation) TruncateTo(n int) {
	if r.staged != 0 || r.owed != 0 || !r.covered() {
		r.misuse("TruncateTo")
	}
	if n < 0 || n >= r.Len() {
		return
	}
	r.muts++
	r.recall()
	if !r.detachPinned(n * r.arity) {
		r.arena = r.arena[:n*r.arity]
	}
	if r.countsOn {
		r.counts = r.counts[:n]
	}
	r.reindexRows()
}

// reindexRows rebuilds every derived per-row structure — row table,
// registered histograms and indexes — from the current arena, in place.
// Shared by the prefix rewind (TruncateTo), the batch deletion compaction
// (DeleteRows) and the ground-prefix splice (AssertAt); counts are positional
// and compacted by the caller alongside the arena.
func (r *Relation) reindexRows() {
	r.tab.reset(r.lazy)
	r.tab.fill(r.arena, r.arity, r.lazy)
	for i := range r.indexes {
		r.indexes[i].reset(true, r.lazy)
	}
	r.histReset()
	n := int32(r.Len())
	for row := int32(0); row < n; row++ {
		r.indexRow(r.Row(row), row)
	}
}

// indexRow enters arena row `row`, whose content is t, into the registered
// histograms and, except on a delta, indexes.
func (r *Relation) indexRow(t []Value, row int32) {
	if r.histograms != nil {
		r.histInsert(t)
	}
	if r.lazy {
		return
	}
	for i := range r.indexes {
		r.indexes[i].add(r.arena, r.arity, row, false)
	}
}

// InsertAll inserts every tuple of src into r, returning the number of
// tuples that were new. The relations must have equal arity.
func (r *Relation) InsertAll(src *Relation) int {
	if src.arity != r.arity {
		panic(fmt.Sprintf("storage: InsertAll arity mismatch %q/%d <- %q/%d", r.name, r.arity, src.name, src.arity))
	}
	added := 0
	src.Each(func(row []Value) bool {
		if r.Insert(row) {
			added++
		}
		return true
	})
	return added
}

// Snapshot returns a copy of all tuples, useful for tests and result output.
func (r *Relation) Snapshot() [][]Value {
	out := make([][]Value, 0, r.Len())
	r.Each(func(row []Value) bool {
		t := make([]Value, len(row))
		copy(t, row)
		out = append(out, t)
		return true
	})
	return out
}

// Footprint is the memory a relation holds, in bytes, by structure.
type Footprint struct {
	Arena    int // the row arena's capacity; 0 for a view of Derived's rows (borrow)
	RowTable int // the row table's slots
	Indexes  int // every index's slot table and links
}

// Footprint returns the bytes r holds in its arena, row table and indexes.
// Shared empty tables count nothing.
func (r *Relation) Footprint() Footprint {
	var f Footprint
	const word, slot = 4, 8 // a Value, link or row-table slot; a chainSlot
	if r.lender == nil {
		f.Arena = word * cap(r.arena)
	}
	if len(r.tab.slots) >= minTableSize {
		f.RowTable = word * len(r.tab.slots)
	}
	for i := range r.indexes {
		ix := &r.indexes[i]
		f.Indexes += word * cap(ix.next)
		if len(ix.slots) >= minTableSize {
			f.Indexes += slot * len(ix.slots)
		}
	}
	return f
}
