package interp

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"carac/internal/ir"
	"carac/internal/storage"
)

// This file is the execution half of DRed-style retraction (lowered by
// ir.LowerRetract). Given the ground rows a transaction deletes, OverDelete
// computes the over-approximate set of derived rows that might lose support —
// the closure of the deletions through every rule, evaluated against the OLD
// database — and, after the caller physically removes those rows, Rederive
// resurrects the candidates that still have an all-surviving one-step
// derivation. Cascading rederivations and co-batched insertions then ride the
// monotone warm-start continuation (ir.LowerWarm + SeedDelta): after removal
// the database under-approximates the new fixpoint and the rederived and
// inserted rows seed its deltas.
//
// A deletion is executed the way the equivalent insertion is:
//
//   - Rounds are delta-driven and optimizer-ordered. A propagate variant is a
//     plain SPJ whose SrcDelta atom reads the round's frontier in DeltaKnown;
//     before each round it is reordered against live cardinalities (Reorder),
//     so the small frontier drives and Derived is index-probed, and a variant
//     whose frontier is empty builds no plan at all.
//   - The doomed set is the only set. A candidate head is resolved once
//     through Derived's row table; membership is a bitset over Derived's row
//     ids, which already makes every doomed row distinct, so nothing else
//     deduplicates: the next frontier is a list appended to the predicate's
//     DeltaNew (storage.Relation.AppendDistinct) and rotated in at the
//     barrier, and only a frontier that one of the round's plans reads fully
//     bound (a StepMember on SrcDelta) gets a row table, built in one sized
//     pass (Seal); only one a plan probes gets that index (EnsureDeltaIndexes).
//     The caller removes the rows by handing the bitset itself to
//     storage.Relation.DeleteRowIDs. No tuple is copied to the heap or looked
//     up twice, and no row id is sorted.
//   - Rederivation is head-driven. The doomed rows are bulk-loaded into the
//     head predicate's DeltaKnown before the caller compacts Derived (row ids
//     do not survive that) — sized once from the bitset's popcount, appended
//     off the bits, sealed if a plan tests membership in them and indexed if
//     one probes them — and join the rule's body as one more atom, so only
//     bodies that produce a candidate are visited; an atom that arrives fully
//     bound is answered by the row table (StepMember).
//
// A round's plans fan out across the worker pool like an iteration's
// subqueries: readers and the doomed bitset are frozen for the round, each
// task appends to its worker's lists (RowList), and the barrier commits the
// rows in plan order, so the doom order does not depend on scheduling.

// Doomed is an over-delete closure, valid until Derived is mutated.
type Doomed struct {
	// Bits holds, per PredID, one bit per Derived row, set for the rows that
	// lost their support, seeds included; nil where none did. It is the batch
	// storage.Relation.DeleteRowIDs takes.
	Bits     [][]uint64
	rederive []*Plan // candidate-driven plans, fixed while the row ids held
}

func (d *Doomed) has(pid storage.PredID, row int32) bool {
	b := d.Bits[pid]
	return b != nil && b[row>>6]&(1<<(row&63)) != 0
}

// OverDelete computes the over-delete closure of seeds (per PredID, the
// Derived row ids of the ground facts whose last assertion the transaction
// retracts). Derived is read but never written: on any error — a plan that
// cannot be built, ErrCancelled — the standing fixpoint is intact and the
// caller may recompute instead. On success the caller removes d.Bits
// (storage.DeleteRowIDs) and then calls Rederive, for which the doomed rows
// are left staged in DeltaKnown.
//
// protect, when non-nil, exempts rows from ever becoming candidates — the
// counting half of the maintenance scheme: a ground fact whose assertion
// count is still positive keeps its own support no matter how many of its
// derivations collapse, so it neither gets deleted nor propagates deletion.
// It takes the row id because that is what the closure holds, and the
// caller's ground watermark and counts are positional too.
func (in *Interp) OverDelete(rules []ir.RetractRule, seeds [][]int32, protect func(storage.PredID, int32) bool) (d *Doomed, err error) {
	cat := in.Cat
	d = &Doomed{Bits: make([][]uint64, cat.NumPreds())}
	in.clearDeltas()
	defer func() {
		if err != nil {
			in.clearDeltas()
		}
	}()
	doom := func(pd *storage.PredicateDB, row int32) {
		if d.Bits[pd.ID] == nil {
			d.Bits[pd.ID] = make([]uint64, (pd.Derived.Len()+63)/64)
		}
		d.Bits[pd.ID][row>>6] |= 1 << (row & 63)
		pd.DeltaNew.AppendDistinct(pd.Derived.Row(row))
	}
	for pid, rows := range seeds {
		for _, row := range rows {
			if !d.has(storage.PredID(pid), row) {
				doom(cat.Pred(storage.PredID(pid)), row)
			}
		}
	}
	var variants, naive []*ir.SPJOp
	for _, rr := range rules {
		variants = append(variants, rr.Propagate...)
		naive = append(naive, rr.Rederive)
	}
	// A head that is absent from the old database, already doomed, or
	// protected is not a candidate. Pool tasks apply the read-only part
	// (fresh) against the round-frozen bitset; the barrier decides.
	fresh := func(pid storage.PredID, head []storage.Value) (int32, bool) {
		row, ok := cat.Pred(pid).Derived.RowOf(head)
		return row, ok && !d.has(pid, row)
	}
	keep := func(pid storage.PredID, head []storage.Value) bool {
		_, ok := fresh(pid, head)
		return ok
	}
	commit := func(pid storage.PredID, head []storage.Value) {
		if row, ok := fresh(pid, head); ok && (protect == nil || !protect(pid, row)) {
			doom(cat.Pred(pid), row)
		}
	}
	for {
		// Barrier: what the last round doomed is this round's frontier.
		more := false
		for _, pd := range cat.Preds() {
			pd.SwapDeltas()
			more = more || !pd.DeltaKnown.Empty()
		}
		if !more {
			break
		}
		plans, err := in.retractPlans(variants)
		if err == nil {
			err = in.runRetractPlans(plans, keep, commit)
		}
		if err != nil {
			return nil, err
		}
	}
	// Stage the candidates for Rederive off the bitsets — distinct by
	// construction, their number known — and fix its plans now: a plan that
	// cannot be built must surface before the caller removes anything.
	for pid, set := range d.Bits {
		n := 0
		for _, w := range set {
			n += bits.OnesCount64(w)
		}
		pd := cat.Pred(storage.PredID(pid))
		pd.DeltaKnown.Reserve(n)
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				pd.DeltaKnown.AppendDistinct(pd.Derived.Row(int32(wi<<6 + bits.TrailingZeros64(w))))
			}
		}
	}
	if d.rederive, err = in.retractPlans(naive); err != nil {
		return nil, err
	}
	return d, nil
}

// Rederive runs the rederivation round over the reduced database — the
// caller has removed d.Bits — and hands emit every candidate that still has a
// one-step derivation, once each (row is a view, valid for the call). They
// must be re-inserted; emit may do so, the round is over by then. Counted
// into Stats.Rederived. The delta relations are left released.
func (in *Interp) Rederive(d *Doomed, emit func(pid storage.PredID, row []storage.Value)) error {
	cat := in.Cat
	defer in.clearDeltas()
	// The candidate atom makes every emitted head a candidate; DeltaNew
	// dedups the ones two rules (or two bodies) rederive.
	err := in.runRetractPlans(d.rederive, nil, func(pid storage.PredID, head []storage.Value) {
		cat.Pred(pid).DeltaNew.Insert(head)
	})
	if err != nil {
		return err
	}
	for _, pd := range cat.Preds() {
		in.Stats.Rederived += int64(pd.DeltaNew.Len())
		pd.DeltaNew.Each(func(row []storage.Value) bool {
			emit(pd.ID, row)
			return true
		})
	}
	return nil
}

// clearDeltas empties both delta relations of every predicate, giving their
// memory to the scratch pool for the next Apply or Run: retraction borrows
// them as working state.
func (in *Interp) clearDeltas() {
	for _, pd := range in.Cat.Preds() {
		pd.DeltaKnown.Clear()
		pd.DeltaNew.Clear()
	}
}

// retractPlans prepares one round on the coordinating goroutine: every
// variant whose delta relation holds rows is reordered against the live
// cardinalities and compiled; the others cost nothing. A delta relation — a
// frontier or the candidates, appended as a list — that a plan reads fully
// bound is sealed, once, so its membership steps have a row table to ask, and
// one a plan probes gets that index ensured.
func (in *Interp) retractPlans(variants []*ir.SPJOp) ([]*Plan, error) {
	var plans []*Plan
	for _, spj := range variants {
		if delta := spj.Atoms[spj.DeltaIdx]; in.Cat.Pred(delta.Pred).DeltaKnown.Empty() {
			continue
		}
		if in.Reorder != nil {
			if err := in.Reorder(spj); err != nil {
				return nil, err
			}
		}
		plan, err := BuildPlan(spj, in.Cat)
		if err != nil {
			return nil, err
		}
		memberSteps(plan, spj)
		for _, st := range plan.Steps {
			if st.Kind == StepMember && st.Src == ir.SrcDelta {
				in.Cat.Pred(st.Pred).DeltaKnown.Seal()
			}
		}
		EnsureDeltaIndexes(plan, in.Cat)
		plan.Cancel = in.Cancelled
		in.Stats.SPJRuns++
		in.Stats.PlanBuilds++
		plans = append(plans, plan)
	}
	return plans, nil
}

// runRetractPlans executes one round's plans and passes every emitted head to
// commit, in plan order. With parallel execution configured the plans fan out
// across the worker pool — sound as iteration fan-out is: Derived and
// DeltaKnown are frozen for the round — each task appending the heads that
// pass keep (nil keeps all; it may only read state the round leaves alone)
// to its worker's lists, committed at the barrier in plan order.
func (in *Interp) runRetractPlans(plans []*Plan, keep func(storage.PredID, []storage.Value) bool, commit func(storage.PredID, []storage.Value)) error {
	workers := 1
	if in.Parallel {
		workers = in.poolSize(len(plans))
	}
	if workers <= 1 {
		for _, p := range plans {
			p.Execute(in.Cat, func(head, _ []storage.Value) { commit(p.Sink, head) })
		}
	} else {
		pool := in.startWorkers(workers)
		var next atomic.Int32
		var wg sync.WaitGroup
		for _, ws := range pool {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(plans); i = int(next.Add(1)) - 1 {
					p := plans[i]
					out := ws.out.sink(p.Sink, len(p.Head))
					p.Execute(in.Cat, func(head, _ []storage.Value) {
						if keep == nil || keep(p.Sink, head) {
							out.Append(head)
						}
					})
					ws.out.endTask(i)
				}
			}()
		}
		wg.Wait()
		endTasks(pool, commit)
	}
	if in.Cancelled() {
		return ErrCancelled
	}
	return nil
}
