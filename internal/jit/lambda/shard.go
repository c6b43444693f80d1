// The step combinators: one frame-threaded chain per subquery serves both
// ways a compiled subquery runs. A sequential unit (CompilePlan) invokes it
// unrestricted; a ShardUnit is the compiled body of one rule's parallel task,
// invoked by the fixpoint driver's pool workers with the same morsels the
// interpreted tasks read. The chains close over immutable step descriptors
// only: everything an invocation mutates lives in the frame of the invoking
// interpreter, so distinct workers can run the same unit over disjoint
// morsels concurrently.
//
// Every relational step reads through storage's one read surface
// (storage.Relation.Scan, ScanKey) over a row range: the task's morsel on the
// subquery's delta read, [0, bound) of its source (interp.SourceRel)
// elsewhere, so Old reads Derived less δ like every other executor; the
// key's chain and the filtered-scan fallback live inside storage. Derivations flow
// through interp.Interp.DerivationSink: under the parallel pool that is the
// worker's private append-only list, folded by the merge barrier through the
// sink's PredicateDB.Emit; elsewhere the emit is the counted Emit itself.
package lambda

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/eval"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// CompileShard compiles a rule subtree (UnionRuleOp, or a single SPJOp)
// into a morsel-parameterized interp.ShardUnit. Atom orders and probe
// selections freeze at compile time, exactly like CompilePlan; the morsel
// is resolved per invocation, so one unit stays valid across SwapClear's
// relation exchanges and ClearRetain. Aggregation rules are rejected: a
// morsel-restricted evaluation would emit per-morsel partial groups.
func (c Compiler) CompileShard(op ir.Op, cat *storage.Catalog) (interp.ShardUnit, error) {
	switch n := op.(type) {
	case *ir.UnionRuleOp:
		units := make([]interp.ShardUnit, len(n.Subqueries))
		for i, s := range n.Subqueries {
			u, err := c.CompileShard(s, cat)
			if err != nil {
				return nil, err
			}
			units[i] = u
		}
		return func(in *interp.Interp, lo, hi, n int) error {
			for _, u := range units {
				if err := u(in, lo, hi, n); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ir.SPJOp:
		if n.Agg.Kind != ast.AggNone {
			return nil, fmt.Errorf("lambda: aggregation subquery is not shard-compilable (per-morsel partial groups)")
		}
		plan, err := interp.BuildPlan(n, cat)
		if err != nil {
			return nil, err
		}
		return stitch(plan).run, nil
	}
	return nil, fmt.Errorf("lambda: cannot shard-compile %T", op)
}

// frame is the register file of one unit invocation. An interpreter keeps
// one (interp.Interp.Frame), grown to the largest unit it ran: a unit runs
// to completion before the next one starts on the same interpreter, and each
// pool worker's sub-interpreter has its own.
type frame struct {
	in   *interp.Interp
	bind []storage.Value
	buf  []storage.Value // emit/negation/builtin tuple scratch
	keys []storage.Value // probe key scratch, one segment per nested probe

	// from, to is the row range of the subquery's delta read: the task's
	// morsel, or every row.
	from, to int

	// The sink, resolved per invocation: its predicate, the list the emit
	// appends to (nil outside the pool), and the groups of an aggregating
	// chain's collecting emit.
	sink *storage.PredicateDB
	list *interp.RowList
	agg  *eval.Aggregator
}

// frameOf returns in's frame with numVars zeroed bindings.
func frameOf(in *interp.Interp, numVars int) *frame {
	f, _ := in.Frame.(*frame)
	if f == nil {
		f = &frame{in: in}
		in.Frame = f
	}
	if cap(f.bind) < numVars {
		f.bind = make([]storage.Value, numVars)
	}
	f.bind = f.bind[:numVars]
	clear(f.bind)
	return f
}

// rows returns the row range a step reads: the frame's morsel on the delta
// read, [0, bound) of its source otherwise.
func (f *frame) rows(delta bool, bound int) (from, to int) {
	if delta {
		return f.from, f.to
	}
	return 0, bound
}

// emit writes one head tuple to the frame's sink. Under the parallel pool
// the frame holds a worker list: the emit applies the set difference against
// the iteration-frozen Derived (a read-only row-table lookup) and appends the
// survivor through the list's repeat filter — safe because each worker owns
// its lists outright — for the merge barrier to fold through the sink's Emit,
// the only exact deduplication. Without a list it is the counted Emit.
func (f *frame) emit(t []storage.Value) {
	f.in.Stats.Matches++
	if f.list != nil {
		if !f.sink.Derived.Contains(t) {
			f.list.AppendNew(t)
		}
		return
	}
	if f.sink.Emit(t) {
		f.in.Stats.Derivations++
	}
}

// step is one combinator of a chain.
type step func(f *frame)

// chain is one subquery's stitched combinators and what an invocation needs
// to set up their frame.
type chain struct {
	plan  *interp.Plan
	first step
	// delta is the step index of the subquery's delta read, the one a task's
	// morsel restricts: the first relational step sourcing SrcDelta (semi-naive
	// lowering gives each subquery at most one), mirroring the interpreter's
	// applyMorsel; -1 when there is none.
	delta int
}

// stitch binds the plan's step combinators to their continuations — the
// paper's "stitching" of higher-order functions — ending in the emit, or in
// the collecting emit of an aggregating plan.
func stitch(plan *interp.Plan) *chain {
	c := &chain{plan: plan, delta: -1}
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Src == ir.SrcDelta && (st.Kind == interp.StepScan || st.Kind == interp.StepProbe || st.Kind == interp.StepProbeN) {
			c.delta = i
			break
		}
	}
	if plan.Agg.Kind == ast.AggNone {
		c.first = func(f *frame) { f.emit(f.project(plan.Head)) }
	} else {
		c.first = func(f *frame) {
			var v storage.Value
			if plan.Agg.Kind != ast.AggCount {
				v = f.bind[plan.Agg.OverVar]
			}
			f.agg.Add(f.project(plan.Head), v)
		}
	}
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		c.first = combinator(&plan.Steps[i], c.first, i == 0, i == c.delta)
	}
	return c
}

// run invokes the chain as task lo..hi of n, its delta read restricted to
// the task's morsel of δ (storage.Morsel); n <= 1 reads every row. It is the
// interp.ShardUnit of one subquery.
func (c *chain) run(in *interp.Interp, lo, hi, n int) error {
	f := frameOf(in, c.plan.NumVars)
	f.from, f.to = 0, storage.AllRows
	if n > 1 {
		if c.delta < 0 {
			// Whole-relation subqueries are not morsel-divisible; the first
			// task runs them alone so the fan-out neither duplicates nor
			// drops them (the interpreter's rule in execSPJ).
			if lo != 0 {
				return nil
			}
		} else {
			rows := in.Cat.Pred(c.plan.Steps[c.delta].Pred).DeltaKnown.Len()
			f.from, f.to = storage.Morsel(rows, lo, hi, n)
		}
	}
	in.Stats.SPJRuns++
	if cap(f.buf) < len(c.plan.Head) {
		f.buf = make([]storage.Value, len(c.plan.Head))
	}
	f.sink, f.list = in.Cat.Pred(c.plan.Sink), in.DerivationSink(c.plan.Sink)
	if a := c.plan.Agg; a.Kind != ast.AggNone {
		f.agg = eval.NewAggregator(a.Kind, len(c.plan.Head), a.HeadPos)
	}
	c.first(f)
	// A cancelled body was abandoned mid-scan: its groups are partial, and
	// a partial aggregate is a wrong fact, not an early one.
	cancelled := in.Cancelled()
	if f.agg != nil && !cancelled {
		f.agg.Emit(f.emit)
	}
	f.sink, f.list, f.agg = nil, nil, nil
	if cancelled {
		return interp.ErrCancelled
	}
	return nil
}

// project writes the head tuple under the frame's bindings to its tuple
// scratch, which run sized for the head.
func (f *frame) project(head []ir.ProjElem) []storage.Value {
	t, bind := f.buf[:len(head)], f.bind
	for i, h := range head {
		if h.IsConst {
			t[i] = h.Const
		} else {
			t[i] = bind[h.Var]
		}
	}
	return t
}

// combinator selects the precompiled combinator for one step and binds it to
// the continuation. delta marks the subquery's delta read. The combinators
// close over st, an element of the chain's plan, which stays immutable while
// the unit lives: a compiled unit keeps a closure or two per step, no copies.
func combinator(st *interp.Step, next step, outermost, delta bool) step {
	switch st.Kind {
	case interp.StepScan, interp.StepProbe, interp.StepProbeN:
		return read(st, next, outermost, delta)

	case interp.StepNegCheck:
		return func(f *frame) {
			rel, _ := interp.SourceRel(f.in.Cat, st.Pred, st.Src) // a negated atom is never Old
			f.buf = f.buf[:0]
			for _, tm := range st.Tmpl {
				f.buf = append(f.buf, resolveTmpl(tm, f.bind))
			}
			if !rel.Contains(f.buf) {
				next(f)
			}
		}

	case interp.StepBuiltin:
		if st.Out < 0 {
			return func(f *frame) {
				f.buf = f.buf[:0]
				for _, a := range st.Args {
					f.buf = append(f.buf, resolveTmpl(a, f.bind))
				}
				if eval.Check(st.Builtin, f.buf) {
					next(f)
				}
			}
		}
		return func(f *frame) {
			f.buf = f.buf[:0]
			for i, a := range st.Args {
				if i == st.Out {
					f.buf = append(f.buf, 0)
					continue
				}
				f.buf = append(f.buf, resolveTmpl(a, f.bind))
			}
			if v, ok := eval.Solve(st.Builtin, f.buf, st.Out); ok {
				f.bind[st.OutVar] = v
				next(f)
			}
		}
	}
	return next
}

// read compiles a relational step: a scan, or a keyed read on the probe
// column(s), of the relation and row bound its source resolves to at each
// invocation, over the frame's morsel when it is the delta read. The
// outermost scan polls cancellation per row so runaway products abort
// (benchmark DNF timeouts).
func read(st *interp.Step, next step, outermost, delta bool) step {
	// match applies the step's residual checks and binds, then descends.
	match := func(f *frame, row []storage.Value) {
		bind := f.bind
		for _, ck := range st.Checks {
			switch ck.Mode {
			case interp.CheckConst:
				if row[ck.Col] != ck.Const {
					return
				}
			case interp.CheckVar:
				if row[ck.Col] != bind[ck.Var] {
					return
				}
			case interp.CheckSameRow:
				if row[ck.Col] != row[ck.Other] {
					return
				}
			}
		}
		for _, b := range st.Binds {
			bind[b.Var] = row[b.Col]
		}
		next(f)
	}

	switch st.Kind {
	case interp.StepScan:
		return func(f *frame) {
			rel, bound := interp.SourceRel(f.in.Cat, st.Pred, st.Src)
			from, to := f.rows(delta, bound)
			rel.Scan(from, to, func(row []storage.Value) bool {
				if outermost && f.in.Cancelled() {
					return false
				}
				match(f, row)
				return true
			})
		}

	case interp.StepProbe:
		// The join probe of nearly every rule: its key lives on the stack.
		return func(f *frame) {
			rel, bound := interp.SourceRel(f.in.Cat, st.Pred, st.Src)
			from, to := f.rows(delta, bound)
			key := []storage.Value{resolveTmpl(st.ProbeKey, f.bind)}
			rel.ScanKey(from, to, []int{st.ProbeCol}, key, func(row []storage.Value) bool {
				match(f, row)
				return true
			})
		}
	}

	return func(f *frame) {
		rel, bound := interp.SourceRel(f.in.Cat, st.Pred, st.Src)
		from, to := f.rows(delta, bound)
		// Stack discipline on the frame's key scratch: this step's keys live
		// past the descent into inner steps (the visits run per outer row),
		// so inner probes append after this segment, and it is popped when
		// the read finishes.
		base := len(f.keys)
		for _, k := range st.ProbeKeys {
			f.keys = append(f.keys, resolveTmpl(k, f.bind))
		}
		rel.ScanKey(from, to, st.ProbeCols, f.keys[base:], func(row []storage.Value) bool {
			match(f, row)
			return true
		})
		f.keys = f.keys[:base]
	}
}
