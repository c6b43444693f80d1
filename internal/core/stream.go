package core

// Streaming ingestion: Program.Apply takes a batched transaction of fact
// insertions and deletions and brings the derived fixpoint up to date —
// incrementally when it can, from scratch when it must.
//
// The incremental path is counting + DRed (delete-and-rederive,
// Gupta/Mumick/Subrahmanian). Ground facts carry per-row assertion counts
// (storage.EnableCounts): a deletion only becomes real when a count reaches
// zero, so redundant assertions never trigger derived work at all. The facts
// that do disappear seed the over-delete closure (interp.OverDelete over
// ir.LowerRetract shapes, evaluated against the OLD database): delta-driven
// rounds whose subqueries the optimizer orders against live cardinalities
// like any other join, over doomed sets kept as bitsets over Derived row ids
// — which is why the count protection is asked about a row, not a tuple. The
// doomed rows are removed by that bitset in one batched compaction per
// relation (storage.DeleteRowIDs), one rederivation round driven by the removed
// candidates resurrects those that still hold (interp.Rederive), and a
// single monotone warm-start continuation (ir.LowerWarm + SeedDelta) carries
// both cascading rederivations and the transaction's insertions to the new
// fixpoint. This is sound because after removal the database
// under-approximates the new fixpoint and every removed-but-still-derivable
// or newly inserted tuple is in the seeded deltas. A deletion therefore costs
// about what re-deriving the same rows costs.
//
// Options.Timeout covers the whole of it. Up to the end of the closure only
// counts have changed, and a cancellation there (or a retraction subquery
// with no executable plan, which demotes to the cold path) rolls them back
// and leaves the standing fixpoint valid; afterwards a failure leaves the
// ground facts carrying the whole transaction and the fixpoint marked for
// recomputation.
//
// The incremental path requires a standing fixpoint and a monotone program.
// Everything else — first Apply, stratified negation or aggregation, Naive
// mode, a failed prior run — takes the cold path: rewind to the ground
// baseline, apply the transaction to the ground facts (still count-gated),
// and rerun the full derivation. Both paths leave the Program in the exact
// state a fresh Run over the post-transaction facts would produce — the
// property the differential harness pins.

import (
	"errors"
	"fmt"
	"time"

	"carac/internal/ast"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// Tx is a batched transaction of fact insertions and deletions against one
// Program. Build it with NewTx, fill it with Insert/Delete, and hand it to
// Program.Apply (or Server.IngestTx). A Tx is a pair of multisets, not a
// sequence: deletions apply before insertions, so deleting and inserting the
// same tuple in one Tx leaves it asserted. Deleting a fact that was never
// asserted (including tuples that are only derived) is a no-op.
type Tx struct {
	p    *Program
	ins  map[storage.PredID][][]storage.Value
	dels map[storage.PredID][][]storage.Value
	// insOrder/delOrder keep first-touch predicate order so application is
	// deterministic regardless of map iteration.
	insOrder []storage.PredID
	delOrder []storage.PredID
	nIns     int
	nDel     int
}

// NewTx returns an empty transaction against p.
func (p *Program) NewTx() *Tx {
	return &Tx{
		p:    p,
		ins:  make(map[storage.PredID][][]storage.Value),
		dels: make(map[storage.PredID][][]storage.Value),
	}
}

// Insert adds one fact assertion (arguments as in Relation.Fact) to the
// transaction.
func (t *Tx) Insert(r *Relation, args ...any) error {
	tuple, err := r.encode(args)
	if err != nil {
		return err
	}
	t.InsertTuple(r, tuple)
	return nil
}

// Delete adds one fact retraction (arguments as in Relation.Fact) to the
// transaction.
func (t *Tx) Delete(r *Relation, args ...any) error {
	tuple, err := r.encode(args)
	if err != nil {
		return err
	}
	t.DeleteTuple(r, tuple)
	return nil
}

// InsertTuple adds a pre-encoded assertion (fast path for loaders).
func (t *Tx) InsertTuple(r *Relation, tuple []storage.Value) {
	if _, ok := t.ins[r.id]; !ok {
		t.insOrder = append(t.insOrder, r.id)
	}
	t.ins[r.id] = append(t.ins[r.id], tuple)
	t.nIns++
}

// DeleteTuple adds a pre-encoded retraction (fast path for loaders).
func (t *Tx) DeleteTuple(r *Relation, tuple []storage.Value) {
	if _, ok := t.dels[r.id]; !ok {
		t.delOrder = append(t.delOrder, r.id)
	}
	t.dels[r.id] = append(t.dels[r.id], tuple)
	t.nDel++
}

// HasDeletes reports whether the transaction retracts anything.
func (t *Tx) HasDeletes() bool { return t.nDel > 0 }

// Size returns the number of operations in the transaction.
func (t *Tx) Size() int { return t.nIns + t.nDel }

// ApplyResult reports one transaction's application.
type ApplyResult struct {
	// Result is the derivation (or continuation) outcome; its Interp stats
	// include Retracted/Rederived for the incremental path.
	*Result
	// Latency is the end-to-end wall time of Apply.
	Latency time.Duration
	// Inserted counts assertions applied; Deleted counts retractions whose
	// assertion count reached zero (redundant retractions are no-ops).
	Inserted int
	Deleted  int
	// Retracted counts rows physically removed across all relations — the
	// zero-count ground facts plus over-deleted derived rows that were not
	// rederived. Rederived counts candidates resurrected by the DRed round.
	Retracted int
	Rederived int
	// Cold reports that the transaction was applied by full recomputation
	// (no standing fixpoint, non-monotone program, or Naive mode) rather
	// than the incremental counting/DRed path.
	Cold bool
}

// Apply applies tx and brings the fixpoint up to date under opts, preferring
// the incremental counting/DRed path and falling back to a cold recompute
// (ApplyResult.Cold). Serializes with Run and Serve on the Program's run
// mutex; the transaction itself is applied atomically with respect to them.
func (p *Program) Apply(tx *Tx, opts Options) (*ApplyResult, error) {
	if tx == nil || tx.p != p {
		return nil, fmt.Errorf("core: Apply of a transaction built for a different Program")
	}
	start := time.Now()
	opts, err := resolveOptions(opts, "Apply")
	if err != nil {
		return nil, err
	}
	prog, root, err := p.lowered(opts)
	if err != nil {
		return nil, err
	}

	p.runMu.Lock()
	defer p.runMu.Unlock()
	// Retraction and the continuation reuse the slabs of the last Apply;
	// collections during this one do not free them.
	defer storage.HoldScratch()()
	p.enableCountsLocked()

	// The incremental path needs a standing fixpoint to maintain and
	// retraction/continuation lowerings, which exist only for monotone
	// programs. LowerWarm/LowerRetract errors are demotions, not failures —
	// the cold path below handles every program Run can.
	res := &ApplyResult{}
	if p.frozen && !p.baselineClean && p.haveFixpoint && !opts.Naive && monotoneProgram(prog) {
		warmRoot, werr := ir.LowerWarm(prog)
		rules, rerr := ir.LowerRetract(prog)
		if werr == nil && rerr == nil {
			r, err := p.applyWarmLocked(tx, prog, warmRoot, rules, opts, res)
			if err == nil {
				res.Result = r
				res.Latency = time.Since(start)
				return res, nil
			}
			if !errors.Is(err, errNoRetractPlan) {
				return nil, err
			}
			// Demoted with the standing fixpoint and every count as they
			// were; the cold path applies the transaction from scratch.
			*res = ApplyResult{}
		}
	}

	// Cold path: rewind to the ground baseline, apply the transaction to the
	// ground facts (count-gated, one DeleteRows compaction per relation),
	// and derive from scratch.
	res.Cold = true
	p.ensureFrozenLocked()
	p.ensureBaseline()
	res.Inserted, res.Deleted, res.Retracted = p.applyGroundLocked(tx)
	r, err := p.runLocked(prog, root, opts)
	if err != nil {
		return nil, err
	}
	r.Interp.Retracted += int64(res.Retracted)
	res.Result = r
	res.Latency = time.Since(start)
	return res, nil
}

// errNoRetractPlan marks an incremental Apply that gave up before changing
// anything because a retraction subquery has no executable plan; Apply
// answers it with the cold path.
var errNoRetractPlan = errors.New("core: retraction plan failed")

// applyWarmLocked is the incremental path. Derived currently holds a full
// fixpoint; afterwards it holds the fixpoint of the post-transaction facts.
// opts.Timeout bounds all of it. Until the over-delete closure is complete
// nothing but assertion counts has changed, so an error from there —
// interp.ErrCancelled, or errNoRetractPlan — restores the counts and leaves
// the standing fixpoint valid; an error after rows were removed leaves
// haveFixpoint false and the next Apply or Run recomputes.
func (p *Program) applyWarmLocked(tx *Tx, prog *ast.Program, warmRoot *ir.ProgramOp, rules []ir.RetractRule, opts Options, res *ApplyResult) (*Result, error) {
	// Epoch discipline matches Run: each applied transaction is a boundary.
	p.cat.AdvanceEpoch()
	var store *plancache.Store
	if opts.SharedPlans {
		store = p.PlanStore()
		store.BumpGeneration()
	}
	// Derived gains, permanently, the indexes the continuation and the
	// retraction rounds probe: registering one links Derived's rows once.
	uses := append(ir.IndexUses(warmRoot), ir.RetractIndexUses(rules)...)
	eng, err := newExecEngine(p.cat, prog, warmRoot, uses, opts, store, stats.Catalog{Cat: p.cat})
	if err != nil {
		return nil, err
	}
	defer eng.close()
	if p.retractOrder != nil {
		eng.in.Reorder = p.retractOrder
	}
	defer eng.arm(opts.Timeout)()

	// 1. Count-gated retraction: only assertions that reach count zero seed
	// the over-delete. Non-ground tuples (absent, or present only as derived
	// rows beyond the ground watermark) are no-ops by definition. undone
	// lists the decrements that took effect, for the roll-back.
	seeds := make([][]int32, p.cat.NumPreds())
	type decrement struct {
		der *storage.Relation
		t   []storage.Value
	}
	var undone []decrement
	for _, pid := range tx.delOrder {
		der := p.cat.Pred(pid).Derived
		for _, t := range tx.dels[pid] {
			row, ok := der.RowOf(t)
			if !ok || int(row) >= p.baseLens[pid] {
				continue
			}
			res.Deleted++
			if der.CountAt(row) == 0 {
				continue // retracted to zero earlier in this batch
			}
			undone = append(undone, decrement{der, t})
			if rem, _ := der.DecRef(t); rem == 0 {
				seeds[pid] = append(seeds[pid], row)
			}
		}
	}

	// 2. Over-delete closure against the old database. Ground facts whose
	// count is still positive are self-supporting: never candidates.
	doomed, err := eng.in.OverDelete(rules, seeds, func(pid storage.PredID, row int32) bool {
		return int(row) < p.baseLens[pid] && p.cat.Pred(pid).Derived.CountAt(row) > 0
	})
	if err != nil {
		for _, u := range undone {
			u.der.IncRef(u.t)
		}
		if errors.Is(err, interp.ErrCancelled) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errNoRetractPlan, err)
	}

	// From here on Derived is mutated away from the old fixpoint; only a
	// completed continuation restores the invariant.
	p.haveFixpoint = false

	// 3. Physical removal, one batched compaction per relation, shrinking
	// the ground watermark by the prefix rows that died.
	for pid, dead := range doomed.Bits {
		removed, below := p.cat.Pred(storage.PredID(pid)).Derived.DeleteRowIDs(dead, p.baseLens[pid])
		p.baseLens[pid] -= below
		res.Retracted += removed
		eng.in.Stats.Retracted += int64(removed)
	}

	// 4. Rederivation round over the reduced database: candidates that still
	// have an all-surviving one-step derivation come back (as derived rows —
	// their ground assertions, if any, are gone). seedRows collects, per
	// predicate and flat, the rows the continuation starts from.
	seedRows := make([][]storage.Value, p.cat.NumPreds())
	rederiveErr := eng.in.Rederive(doomed, func(pid storage.PredID, t []storage.Value) {
		p.cat.Pred(pid).Derived.Insert(t)
		res.Rederived++
		seedRows[pid] = append(seedRows[pid], t...)
	})

	// 5. Insertions: splice new assertions into the ground prefix
	// (promoting already-derived tuples), keeping the arena prefix
	// invariant the cold path's rewind depends on. Also when the rederivation
	// was cancelled: the deletions are in the ground facts by now, and the
	// recompute that follows a failed Apply must see the whole transaction.
	for _, pid := range tx.insOrder {
		batch := tx.ins[pid]
		added, promoted := p.cat.Pred(pid).Derived.AssertAt(batch, p.baseLens[pid])
		p.baseLens[pid] += len(added) + promoted
		res.Inserted += len(batch)
		for _, t := range added {
			seedRows[pid] = append(seedRows[pid], t...)
		}
	}
	if rederiveErr != nil {
		return nil, rederiveErr
	}

	// 6. One monotone continuation: the rederived and newly inserted rows
	// seed the deltas; semi-naive evaluation carries cascading
	// rederivations and insertion consequences to the new fixpoint. A later
	// stratum is also seeded with what the continuation itself derived in
	// the strata before it: those rows are the ones past Derived's length
	// as of now.
	mark := make([]int, p.cat.NumPreds())
	for i, pd := range p.cat.Preds() {
		mark[i] = pd.Derived.Len()
	}
	// Each seed row is a row of Derived once: rederived rows are distinct,
	// an inserted tuple that was rederived is promoted rather than added, and
	// the rows past the mark are new since.
	eng.setSeedDelta(func(pid storage.PredID, seed func([]storage.Value)) bool {
		der := p.cat.Pred(pid).Derived
		for rows, ar := seedRows[pid], der.Arity(); len(rows) > 0; rows = rows[ar:] {
			seed(rows[:ar])
		}
		for row := mark[pid]; row < der.Len(); row++ {
			seed(der.Row(int32(row)))
		}
		return true
	})
	r, err := eng.query(true)
	if err != nil {
		return nil, err
	}
	p.haveFixpoint = true
	return r, nil
}

// enableCountsLocked flips every Derived relation to counted mode
// (idempotent; counts survive layout transitions and compactions).
func (p *Program) enableCountsLocked() {
	if p.countsReady {
		return
	}
	for _, pd := range p.cat.Preds() {
		pd.Derived.EnableCounts()
	}
	p.countsReady = true
}

// applyGroundLocked applies tx to the ground facts of a Derived rewound to
// its baseline, count-gated: a deletion decrements an assertion's count and
// the rows whose count reaches zero go in one DeleteRows compaction per
// relation; an insertion increments a count or appends a ground row. It
// returns the assertions applied, the deletions that matched an asserted
// fact, and the rows removed. Callers hold runMu and have frozen the rule
// set.
func (p *Program) applyGroundLocked(tx *Tx) (inserted, deleted, retracted int) {
	for _, pid := range tx.delOrder {
		pd := p.cat.Pred(pid)
		var dead [][]storage.Value
		for _, t := range tx.dels[pid] {
			if rem, ok := pd.Derived.DecRef(t); ok {
				deleted++
				if rem == 0 {
					dead = append(dead, t)
				}
			}
		}
		removed, below := pd.Derived.DeleteRows(dead, p.baseLens[pid])
		p.baseLens[pid] -= below
		retracted += removed
	}
	for _, pid := range tx.insOrder {
		pd := p.cat.Pred(pid)
		for _, t := range tx.ins[pid] {
			if pd.Derived.IncRef(t) {
				p.baseLens[pid]++
			}
			inserted++
		}
	}
	return inserted, deleted, retracted
}
