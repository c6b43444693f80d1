// Span-parameterized compilation over the physical bucket store: a
// ShardUnit is the compiled body of one rule's parallel task, invoked by
// the fixpoint driver's pool workers with the same contiguous bucket spans
// chooseFanout hands the interpreted tasks. Unlike the sequential units of
// CompilePlan — whose scratch buffers are allocated at compile time because
// they run on the single interpreter goroutine — shard units thread every
// piece of mutable state through a per-invocation frame, so distinct
// workers can run the same unit over disjoint spans concurrently.
//
// The compiled read surface is bucket-local: physically sharded relations
// (storage.SetShardKeyPhysical) are iterated through their PhysSubs
// sub-relations — per-bucket arenas, per-bucket hash indexes, and, for a
// probe on the shard key column, routing to exactly one bucket — while the
// delta step's span restriction narrows the iteration to the task's bucket
// range instead of hashing every row. Derivations flow through
// interp.Interp.DerivationSink: under the parallel pool that is the
// worker's private append-only list, folded by the merge barrier through the
// sink's PredicateDB.Emit; standalone invocations emit directly.
package lambda

import (
	"fmt"
	"sync"

	"carac/internal/ast"
	"carac/internal/eval"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/storage"
)

// CompileShard compiles a rule subtree (UnionRuleOp, or a single SPJOp)
// into a span-parameterized interp.ShardUnit. Atom orders and probe
// selections freeze at compile time, exactly like CompileSPJ; the bucket
// restriction and the storage layout are resolved per invocation, so one
// unit stays valid across SwapClear's relation exchanges, ClearRetain, and
// partition-mode transitions. Aggregation rules are rejected: a
// bucket-restricted evaluation would emit per-span partial groups.
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
		return func(in *interp.Interp, shard, span, total int) error {
			for _, u := range units {
				if err := u(in, shard, span, total); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ir.SPJOp:
		return compileShardSPJ(n, cat)
	}
	return nil, fmt.Errorf("lambda: cannot shard-compile %T", op)
}

// sframe is the per-invocation register file of a shard unit. Compiled step
// chains close over immutable descriptors only; everything a concurrent
// invocation mutates lives here. Frames recycle through the unit's pool.
type sframe struct {
	in   *interp.Interp
	bind []storage.Value
	buf  []storage.Value // emit/negation/builtin tuple scratch
	vals []storage.Value // composite probe key scratch

	// Task restriction, installed by the unit entry point: read only
	// buckets [shard, shard+span) of the delta's total-way physical
	// partition. span 0 means unrestricted.
	shard, span, total int

	// The sink, resolved per invocation: its predicate and the list the
	// emit appends to (nil outside the pool).
	sinkPD   *storage.PredicateDB
	sinkList *interp.RowList
}

// restricted reports whether the frame carries an active span restriction.
func (f *sframe) restricted() bool { return f.span > 0 && f.total > 1 }

// sstep is one combinator of a shard unit's step chain.
type sstep func(f *sframe)

// compileShardSPJ freezes one subquery into a frame-threaded combinator
// chain with its delta read span-parameterized.
func compileShardSPJ(spj *ir.SPJOp, cat *storage.Catalog) (interp.ShardUnit, error) {
	if spj.Agg.Kind != ast.AggNone {
		return nil, fmt.Errorf("lambda: aggregation subquery is not shard-compilable (per-span partial groups)")
	}
	plan, err := interp.BuildPlan(spj, cat)
	if err != nil {
		return nil, err
	}
	// The restriction applies to the subquery's delta read: the first
	// relational step sourcing SrcDelta (semi-naive lowering gives each
	// subquery at most one) — mirroring the interpreter's applyShard.
	deltaStep := -1
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Src != ir.SrcDelta {
			continue
		}
		if st.Kind == interp.StepScan || st.Kind == interp.StepProbe || st.Kind == interp.StepProbeN {
			deltaStep = i
			break
		}
	}
	chain := compileShardEmit(plan)
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		chain = compileShardStep(&plan.Steps[i], chain, i == 0, i == deltaStep)
	}
	hasDelta := deltaStep >= 0
	var deltaPred storage.PredID
	if hasDelta {
		deltaPred = plan.Steps[deltaStep].Pred
	}
	numVars := plan.NumVars
	pool := &sync.Pool{New: func() any {
		return &sframe{
			bind: make([]storage.Value, numVars),
			buf:  make([]storage.Value, 0, 16),
			vals: make([]storage.Value, 0, 8),
		}
	}}
	return func(in *interp.Interp, shard, span, total int) error {
		restricted := span > 0 && total > 1
		if restricted && !hasDelta && shard != 0 {
			// Whole-relation subqueries are not span-divisible; the first
			// task runs them alone so the fan-out neither duplicates nor
			// drops them (the interpreter's shardSkip rule).
			return nil
		}
		if restricted && hasDelta {
			// Empty-span fast-out, mirroring the interpreter's shardSkip:
			// an O(span) bucket-length test skips the whole chain — without
			// it a skewed partition pays the unit's outer scans on every
			// empty task. Uncounted in SPJRuns, like the interpreted skip.
			rel := in.Cat.Pred(deltaPred).DeltaKnown
			rel.CheckShards(total)
			empty := true
			for s := shard; s < shard+span; s++ {
				if rel.ShardLen(s) > 0 {
					empty = false
					break
				}
			}
			if empty {
				return nil
			}
		}
		in.Stats.SPJRuns++
		f := pool.Get().(*sframe)
		f.in = in
		f.sinkPD, f.sinkList = in.Cat.Pred(plan.Sink), in.DerivationSink(plan.Sink)
		for i := range f.bind {
			f.bind[i] = 0
		}
		if restricted {
			f.shard, f.span, f.total = shard, span, total
		} else {
			f.shard, f.span, f.total = 0, 0, 0
		}
		chain(f)
		f.in, f.sinkPD, f.sinkList = nil, nil, nil
		pool.Put(f)
		if in.Cancelled() {
			return interp.ErrCancelled
		}
		return nil
	}, nil
}

// compileShardStep selects the frame-threaded combinator for one step.
// delta marks the subquery's restricted delta read.
func compileShardStep(st *interp.Step, next sstep, outermost, delta bool) sstep {
	switch st.Kind {
	case interp.StepScan, interp.StepProbe, interp.StepProbeN:
		return compileShardRelStep(st, next, outermost, delta)

	case interp.StepNegCheck:
		pred, src := st.Pred, st.Src
		tmpl := st.Tmpl
		return func(f *sframe) {
			rel, _ := interp.SourceRel(f.in.Cat, pred, src) // a negated atom is never Old
			f.buf = f.buf[:0]
			for _, tm := range tmpl {
				f.buf = append(f.buf, resolveTmpl(tm, f.bind))
			}
			if !rel.Contains(f.buf) {
				next(f)
			}
		}

	case interp.StepBuiltin:
		b := st.Builtin
		args := st.Args
		out := st.Out
		outVar := st.OutVar
		if out < 0 {
			return func(f *sframe) {
				f.buf = f.buf[:0]
				for _, a := range args {
					f.buf = append(f.buf, resolveTmpl(a, f.bind))
				}
				if eval.Check(b, f.buf) {
					next(f)
				}
			}
		}
		return func(f *sframe) {
			f.buf = f.buf[:0]
			for i, a := range args {
				if i == out {
					f.buf = append(f.buf, 0)
					continue
				}
				f.buf = append(f.buf, resolveTmpl(a, f.bind))
			}
			if v, ok := eval.Solve(b, f.buf, out); ok {
				f.bind[outVar] = v
				next(f)
			}
		}
	}
	return next
}

// compileShardRelStep compiles a relational step over the bucket-local read
// surface: physical relations iterate their PhysSubs sub-relations (bucket
// indexes, key-column probe routing, the task's span on the restricted delta
// read), flat ones their one arena — the same decisions Plan.Execute makes,
// frozen into combinators. The unit's entry point has checked that a
// restricted delta read has the task's partition
// (storage.Relation.CheckShards). It ignores the row bound of SourceRel and
// reads Full for Old (ir.SrcOld): a sharded run's δ is physical and never a
// view of Derived, so Old is all of Derived there anyway.
func compileShardRelStep(st *interp.Step, next sstep, outermost, delta bool) sstep {
	pred, src := st.Pred, st.Src
	checks := st.Checks
	binds := st.Binds
	kind := st.Kind
	probeCol := st.ProbeCol
	probeKey := st.ProbeKey
	probeCols := st.ProbeCols
	probeKeys := st.ProbeKeys

	// match applies the step's residual checks and binds, then descends.
	match := func(f *sframe, row []storage.Value) {
		for _, ck := range checks {
			switch ck.Mode {
			case interp.CheckConst:
				if row[ck.Col] != ck.Const {
					return
				}
			case interp.CheckVar:
				if row[ck.Col] != f.bind[ck.Var] {
					return
				}
			case interp.CheckSameRow:
				if row[ck.Col] != row[ck.Other] {
					return
				}
			}
		}
		for _, b := range binds {
			f.bind[b.Var] = row[b.Col]
		}
		next(f)
	}

	// span resolves the bucket range the step reads: the task's span on the
	// restricted delta read, every bucket otherwise. The range surfaces
	// (EachShardRange, EachShardRangeProbe*) ignore it on a flat relation.
	span := func(f *sframe, rel *storage.Relation) (lo, hi int) {
		if delta && f.restricted() {
			return f.shard, f.shard + f.span
		}
		return 0, len(rel.PhysSubs())
	}

	switch kind {
	case interp.StepProbe:
		return func(f *sframe) {
			rel, _ := interp.SourceRel(f.in.Cat, pred, src)
			k := resolveTmpl(probeKey, f.bind)
			// A probe on the shard key column routes to exactly one bucket's
			// index; a bucket outside the task's span holds nothing this
			// task may emit, hence the intersection.
			lo, hi := span(f, rel)
			plo, phi := rel.ProbeSpan(probeCol, k)
			rel.EachShardRangeProbe(max(lo, plo), min(hi, phi), probeCol, k, func(row []storage.Value) bool {
				match(f, row)
				return true
			})
		}

	case interp.StepProbeN:
		return func(f *sframe) {
			rel, _ := interp.SourceRel(f.in.Cat, pred, src)
			// Stack discipline on the shared key scratch: this step's keys
			// live past the descent into inner steps (the probe visits run
			// per outer row), so inner ProbeN steps append after this
			// segment and the segment is popped when the iteration finishes.
			base := len(f.vals)
			for _, k := range probeKeys {
				f.vals = append(f.vals, resolveTmpl(k, f.bind))
			}
			defer func() { f.vals = f.vals[:base] }()
			vals := f.vals[base : base+len(probeKeys)]
			// A composite probe covering the shard key column routes to one
			// bucket, like the single-column case.
			lo, hi := span(f, rel)
			plo, phi := rel.ProbeSpanComposite(probeCols, vals)
			rel.EachShardRangeProbeComposite(max(lo, plo), min(hi, phi), probeCols, vals, func(row []storage.Value) bool {
				match(f, row)
				return true
			})
		}
	}

	// StepScan. The outermost loop polls cancellation per row so runaway
	// products abort (benchmark DNF timeouts), like the sequential backend.
	return func(f *sframe) {
		rel, _ := interp.SourceRel(f.in.Cat, pred, src)
		lo, hi := span(f, rel)
		rel.EachShardRange(lo, hi, func(row []storage.Value) bool {
			if outermost && f.in.Cancelled() {
				return false
			}
			match(f, row)
			return true
		})
	}
}

// compileShardEmit compiles the head projection and sink write. Under the
// parallel pool the frame holds a worker list (the interpreter's
// DerivationSink): the emit applies the set difference against the
// iteration-frozen Derived (a read-only row-table lookup) and appends the
// survivor through the list's repeat filter — safe because each worker owns
// its lists outright — for the merge barrier to fold through the sink's Emit,
// the only exact deduplication. Without a list (standalone execution) it is
// the counted Emit itself.
func compileShardEmit(plan *interp.Plan) sstep {
	head := plan.Head
	return func(f *sframe) {
		f.buf = f.buf[:0]
		for _, h := range head {
			if h.IsConst {
				f.buf = append(f.buf, h.Const)
			} else {
				f.buf = append(f.buf, f.bind[h.Var])
			}
		}
		f.in.Stats.Matches++
		pd := f.sinkPD
		if buf := f.sinkList; buf != nil {
			if !pd.Derived.Contains(f.buf) {
				buf.AppendNew(f.buf)
			}
			return
		}
		if pd.Emit(f.buf) {
			f.in.Stats.Derivations++
		}
	}
}
