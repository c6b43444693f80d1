package storage

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// PredID identifies a predicate inside a Catalog. Ids are dense and assigned
// in declaration order, so they can index slices.
type PredID int32

// PredicateDB bundles the three per-predicate relations of the semi-naive
// evaluation scheme (paper §V-B1, §V-D):
//
//   - Derived: every fact discovered so far (the "derived database", ⋆).
//   - DeltaKnown: facts first discovered in the previous iteration,
//     read-only during the current iteration (δ).
//   - DeltaNew: facts discovered in the current iteration, write-only.
//
// Splitting the delta into a read-only Known and a write-only New database
// is what lets any IROp boundary act as a JIT safe point and enables
// parallel/asynchronous work: readers and writers never share a relation.
type PredicateDB struct {
	ID    PredID
	Name  string
	Arity int

	Derived    *Relation
	DeltaKnown *Relation
	DeltaNew   *Relation

	// EDB predicates hold only ground facts (no rules derive them); their
	// deltas stay empty after seeding.
	EDB bool

	// swaps counts SwapClear invocations, the delta-rotation component of the
	// predicate's drift counter.
	swaps uint64

	// indexed lists the column sets indexed per Role (RegisterIndex), each
	// ascending. A registration replaces the whole value, so a plan built on
	// another goroutine (the asynchronous compile thread) reads one
	// consistent registration with one load, and it never follows δ and δ′
	// through SwapClear.
	indexed atomic.Pointer[[numRoles][][]int]
}

// Role names the relations of a predicate that one index registration
// covers, by what reads them: Derived, which an atom reading Full or Old
// probes, or the delta pair δ/δ′, which an atom reading δ probes.
type Role uint8

const (
	RoleDerived Role = iota
	RoleDelta

	numRoles
)

func newPredicateDB(id PredID, name string, arity int) *PredicateDB {
	p := &PredicateDB{
		ID:         id,
		Name:       name,
		Arity:      arity,
		Derived:    NewRelation(name+"⋆", arity),
		DeltaKnown: NewRelation(name+"δ", arity),
		DeltaNew:   NewRelation(name+"δ'", arity),
	}
	p.DeltaKnown.lazy, p.DeltaNew.lazy = true, true
	return p
}

// AddFact inserts a ground fact into Derived, returning true if new.
// Facts become visible to the first iteration via Seed or SeedAll.
func (p *PredicateDB) AddFact(t []Value) bool {
	return p.Derived.Insert(t)
}

// Emit is the sink of semi-naive evaluation: t is a new fact unless Derived
// holds it or this iteration found it already, and one probe of Derived's
// row table answers both (paper §V-B1: δ′ is write-only, so nobody asks it).
// A new fact is staged in Derived — visible to Contains, invisible to every
// reader until SwapClear — and that is its only copy while δ′ is flat and
// holds no rows of its own: δ′ then only counts it as owed, and SwapClear
// lends it the staged rows once they are published. A δ′ that holds rows
// (Seed, the physical δ′ of a sharded run) gets t appended, a list its row
// table does not cover. Either way Mutations and DriftCounter read the same.
// Emit reports whether t was new: the derivation count.
func (p *PredicateDB) Emit(t []Value) bool {
	if !p.Derived.stage(t) {
		return false
	}
	if d := p.DeltaNew; d.lends() {
		d.owe(1)
	} else {
		d.AppendDistinct(t)
	}
	return true
}

// Seed appends t, a row of Derived, to δ′ unchecked: the seeding of a
// stratum's first iteration with facts already known, which the caller
// hands over once each (the warm starts of Apply and Serve). The rows are
// δ′'s own, copied, so seeds come before the iteration's first Emit: a δ′
// that owes rows (SeedAll, Emit) panics (misuse).
func (p *PredicateDB) Seed(t []Value) { p.DeltaNew.AppendDistinct(t) }

// SeedAll seeds δ′ with every row of Derived. A δ′ that lends copies
// nothing: it is owed all of Derived, which the next SwapClear lends it.
// Otherwise the rows are appended.
func (p *PredicateDB) SeedAll() {
	if d := p.DeltaNew; d.lends() {
		d.owe(p.Derived.Len())
		return
	}
	p.Derived.Each(func(row []Value) bool {
		p.DeltaNew.AppendDistinct(row)
		return true
	})
}

// NewLen returns the number of rows the next SwapClear makes δ: those δ′
// holds or is owed.
func (p *PredicateDB) NewLen() int { return p.DeltaNew.Len() + p.DeltaNew.owed }

// OldBound returns the row bound of Old, Derived less δ (ir.SrcOld): Old is
// Derived's rows below it (Relation.Scan, ScanKey). Where δ is the view of
// Derived's newest rows that SwapClear lends it, the bound is the row the
// view starts at, so Old is exact; after SeedAll that is row 0, and Old is
// empty. Anywhere else — a δ that holds rows of its own (Seed, a physical δ,
// a retraction frontier), or a Derived that has grown past the view — it is
// AllRows: all of Derived, a superset of Old, which is always correct and
// only derives some matches twice. The bound moves at every SwapClear, so an
// executor reads it each time a plan runs; it is a few loads, so that
// interp.SourceRel stays inlined in the executors' inner loops.
func (p *PredicateDB) OldBound() int {
	if d := p.DeltaKnown; d.lender == p.Derived && d.lentFrom*d.arity+len(d.arena) == len(p.Derived.arena) {
		return d.lentFrom
	}
	return AllRows
}

// SwapClear implements SwapClearOp for one predicate: publish the facts
// staged in Derived this iteration, swap the read-only and write-only delta
// databases, and clear the relation that will become the next write-only
// delta (paper §V-B1). After the publish, the rows δ′ is owed are exactly
// Derived's newest — the ones staged this iteration, or all of them after
// SeedAll — so δ′ is handed that range of Derived's arena, capacity-clipped
// (Relation.borrow), and becomes δ without a row copied. A predicate that is
// still producing facts keeps δ′'s memory for the refill; once an iteration
// produced none, both deltas give theirs to the scratch pool (chainIndex's
// capacity rule), and a borrowed δ its loan.
func (p *PredicateDB) SwapClear() {
	p.Derived.publish()
	if d := p.DeltaNew; d.owed > 0 {
		d.borrow(p.Derived, p.Derived.Len()-d.owed)
	}
	p.SwapDeltas()
}

// SwapDeltas is SwapClear without the merge into Derived: δ′ becomes the
// next round's δ and the old δ is emptied under the same capacity rule.
// Retraction's over-delete rounds rotate their frontier with it — the
// frontier's rows are already in Derived, on their way out, and a frontier
// sealed for a membership test keeps its row table for the next one.
func (p *PredicateDB) SwapDeltas() {
	p.swaps++
	p.DeltaKnown, p.DeltaNew = p.DeltaNew, p.DeltaKnown
	// Relation names travel with the structs; swap them back so Derived/δ/δ'
	// naming stays meaningful in debug output.
	p.DeltaKnown.name, p.DeltaNew.name = p.Name+"δ", p.Name+"δ'"
	if p.DeltaKnown.Empty() {
		p.DeltaKnown.Clear()
		p.DeltaNew.Clear()
	} else {
		p.DeltaNew.ClearRetain()
	}
}

// DriftCounter returns a monotone counter that advances on every mutation of
// any of the predicate's three relations — insert, clear, truncate — and on
// every delta swap. The sum over all three relations is invariant under
// SwapClear's pointer exchange (the relation set is unchanged) and each
// component only grows, so the counter is monotone; equal observations
// guarantee the predicate's visible state did not change in between. This is
// the cheap freshness pre-test the statistics subsystem and the JIT's unit
// cache consult before computing cardinality drift.
func (p *PredicateDB) DriftCounter() uint64 {
	return p.swaps + p.Derived.Mutations() + p.DeltaKnown.Mutations() + p.DeltaNew.Mutations()
}

// SetShardsPhysical partitions the delta pair into n buckets by hash of
// column col — the join key the planner probes — so the parallel executor
// can hand each bucket span of the delta to a different task: δ and δ′
// become n independent per-bucket sub-relations (SwapClear's pointer
// exchange carries the layout with the structs). Derived stays flat: the
// workers' frozen set-difference probes only read its one row table, and
// Emit stages in it. Content and drift totals are preserved exactly. n < 2
// dissolves the partition.
func (p *PredicateDB) SetShardsPhysical(n, col int) {
	p.DeltaKnown.SetShardKeyPhysical(n, col)
	p.DeltaNew.SetShardKeyPhysical(n, col)
}

// Shards returns the delta pair's bucket count (0 = unsharded).
func (p *PredicateDB) Shards() int {
	n, _ := p.DeltaKnown.ShardConfig()
	return n
}

// RegisterIndex registers an index over cols — one column, or a set of
// several (order-insensitive) — on the relations of role, unless one is
// there already. Derived's index links its rows at once, in one pass, and
// every row after; the deltas' link theirs only when EnsureIndex asks, right
// before a plan probes them. Registration is permanent: it survives Clear,
// Reset and SwapClear, and only ever grows. It must not run while a plan
// executes or while another goroutine compiles one against the catalog's
// statistics; plan building may read Indexed concurrently.
func (p *PredicateDB) RegisterIndex(role Role, cols []int) {
	if len(cols) > 1 && !slices.IsSorted(cols) {
		cols = slices.Sorted(slices.Values(cols))
	}
	if p.Indexed(role, cols) {
		return
	}
	rels := []*Relation{p.Derived}
	if role == RoleDelta {
		rels = []*Relation{p.DeltaKnown, p.DeltaNew}
	}
	for _, r := range rels {
		if len(cols) == 1 {
			r.BuildIndex(cols[0])
		} else {
			r.BuildCompositeIndex(cols)
		}
	}
	next := new([numRoles][][]int)
	if cur := p.indexed.Load(); cur != nil {
		*next = *cur
	}
	next[role] = append(slices.Clip(next[role]), slices.Clone(cols))
	p.indexed.Store(next)
}

// Indexed reports whether role carries an index over exactly the ascending
// column set cols: what plan building asks for the relation a step reads.
func (p *PredicateDB) Indexed(role Role, cols []int) bool {
	if reg := p.indexed.Load(); reg != nil {
		for _, set := range reg[role] {
			if slices.Equal(set, cols) {
				return true
			}
		}
	}
	return false
}

// IndexedColumn reports whether role carries an index over column col alone.
func (p *PredicateDB) IndexedColumn(role Role, col int) bool {
	if reg := p.indexed.Load(); reg != nil {
		for _, set := range reg[role] {
			if len(set) == 1 && set[0] == col {
				return true
			}
		}
	}
	return false
}

// CompositeIndexes returns the multi-column sets role carries, narrowest
// first, then in column order. The caller must not mutate them.
func (p *PredicateDB) CompositeIndexes(role Role) [][]int {
	reg := p.indexed.Load()
	if reg == nil {
		return nil
	}
	var out [][]int
	for _, set := range reg[role] {
		if len(set) > 1 {
			out = append(out, set)
		}
	}
	slices.SortFunc(out, func(a, b []int) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	return out
}

// BuildIndexes registers an index on each of the given columns for both
// roles, so an atom can probe whichever relation it reads. The engine
// registers per role, only what its plans read (RegisterIndex); this is for
// callers that drive plans by hand.
func (p *PredicateDB) BuildIndexes(cols []int) {
	for _, c := range cols {
		p.RegisterIndex(RoleDerived, []int{c})
		p.RegisterIndex(RoleDelta, []int{c})
	}
}

// BuildCompositeIndexes registers one composite index per column set for
// both roles (auto-index selection extension), as BuildIndexes does.
func (p *PredicateDB) BuildCompositeIndexes(sets [][]int) {
	for _, cols := range sets {
		p.RegisterIndex(RoleDerived, cols)
		p.RegisterIndex(RoleDelta, cols)
	}
}

// Reset drops all tuples from the three relations (index registrations are
// kept), returning the predicate to its pre-run state.
func (p *PredicateDB) Reset() {
	p.DeltaKnown.Clear()
	p.DeltaNew.Clear()
	p.Derived.Clear()
}

// Catalog owns every PredicateDB of a program plus the shared symbol table.
// It is the single mutable store the executor, optimizer, and JIT all read;
// because all program state lives here (never on an execution stack), any
// IROp node is a valid point to switch between interpretation and compiled
// code (paper §V-B3).
type Catalog struct {
	Symbols *SymbolTable
	preds   []*PredicateDB
	byName  map[string]PredID
	// epoch counts snapshot boundaries (Runs and published serving epochs);
	// see Epoch/AdvanceEpoch in epoch.go.
	epoch uint64
}

// NewCatalog returns an empty catalog with a fresh symbol table.
func NewCatalog() *Catalog {
	return &Catalog{
		Symbols: NewSymbolTable(),
		byName:  make(map[string]PredID),
	}
}

// Declare registers a predicate, returning its dense id. Re-declaring an
// existing name with the same arity returns the existing id; a different
// arity panics (schema conflict).
func (c *Catalog) Declare(name string, arity int) PredID {
	if id, ok := c.byName[name]; ok {
		if c.preds[id].Arity != arity {
			panic(fmt.Sprintf("storage: predicate %q redeclared with arity %d (was %d)", name, arity, c.preds[id].Arity))
		}
		return id
	}
	id := PredID(len(c.preds))
	c.preds = append(c.preds, newPredicateDB(id, name, arity))
	c.byName[name] = id
	return id
}

// Pred returns the PredicateDB for id.
func (c *Catalog) Pred(id PredID) *PredicateDB { return c.preds[id] }

// PredByName looks a predicate up by name.
func (c *Catalog) PredByName(name string) (*PredicateDB, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return c.preds[id], true
}

// NumPreds returns the number of declared predicates.
func (c *Catalog) NumPreds() int { return len(c.preds) }

// Preds returns the predicate slice indexed by PredID. Callers must not
// mutate it.
func (c *Catalog) Preds() []*PredicateDB { return c.preds }

// ResetFacts clears all derived and delta data in every predicate, keeping
// declarations and index registrations. Used between repeated benchmark runs.
func (c *Catalog) ResetFacts() {
	for _, p := range c.preds {
		p.Reset()
	}
}

// DropStaged forgets the rows staged in every Derived since its last
// SwapClear, and the rows every δ′ is owed — the cleanup of an evaluation
// that stopped mid-iteration, after which Derived holds exactly its
// published rows again.
func (c *Catalog) DropStaged() {
	for _, p := range c.preds {
		p.Derived.unstage()
		p.DeltaNew.owed = 0
	}
}

// ConfigureShardsPhysical partitions every predicate's delta pair into n
// buckets (SetShardsPhysical), keyed by the predicate's entry in keyCols (its
// planned join key; column 0 when absent). Every execution engine reads the
// buckets through Relation.Scan and ScanKey, a pool task over its bucket
// span. n < 2 removes all partitions.
func (c *Catalog) ConfigureShardsPhysical(n int, keyCols map[PredID]int) {
	for _, p := range c.preds {
		col := keyCols[p.ID]
		if col < 0 || col >= p.Arity {
			col = 0
		}
		p.SetShardsPhysical(n, col)
	}
}

// TotalDerived returns the total number of tuples across all Derived
// relations — the headline "facts discovered" statistic.
func (c *Catalog) TotalDerived() int {
	n := 0
	for _, p := range c.preds {
		n += p.Derived.Len()
	}
	return n
}
