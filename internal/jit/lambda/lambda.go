// Package lambda implements Carac's Lambda compilation target (paper §V-C3):
// at runtime it stitches together higher-order functions that were compiled
// ahead of time (the step combinators below), producing an executable with
// no tree-traversal or per-run planning overhead. Like the paper's backend
// it cannot generate arbitrary code — only compositions of the predefined
// combinators — which keeps compilation nearly free while staying type-safe.
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

// Unit is a compiled executable subtree.
type Unit = func(in *interp.Interp) error

// Compiler compiles IR subtrees into closure chains. The zero value is ready
// to use.
type Compiler struct{}

// Name identifies the backend.
func (Compiler) Name() string { return "lambda" }

// Compile builds a Unit for op. The atom orders and probe selections of
// every SPJ beneath op are frozen at compile time. When snippet is true only
// op's own control logic is compiled; children are executed by splicing
// interpreter continuations (safe points between children are preserved).
func (c Compiler) Compile(op ir.Op, cat *storage.Catalog, snippet bool) (Unit, error) {
	if snippet {
		return c.compileSnippet(op, cat)
	}
	return c.compileFull(op, cat)
}

func (c Compiler) compileFull(op ir.Op, cat *storage.Catalog) (Unit, error) {
	switch n := op.(type) {
	case *ir.ProgramOp:
		return c.compileSeq(n.Body, cat)

	case *ir.ScanOp:
		preds := n.Preds
		return func(in *interp.Interp) error {
			in.Seed(preds)
			return nil
		}, nil

	case *ir.SwapClearOp:
		preds := n.Preds
		return func(in *interp.Interp) error {
			for _, pid := range preds {
				in.Cat.Pred(pid).SwapClear()
			}
			return nil
		}, nil

	case *ir.DoWhileOp:
		body, err := c.compileSeq(n.Body, cat)
		if err != nil {
			return nil, err
		}
		preds := n.Preds
		return func(in *interp.Interp) error {
			for {
				if in.Cancelled() {
					return interp.ErrCancelled
				}
				if err := body(in); err != nil {
					return err
				}
				in.Stats.Iterations++
				if interp.DeltasEmpty(in.Cat, preds) {
					return nil
				}
			}
		}, nil

	case *ir.UnionAllOp:
		units := make([]Unit, len(n.Rules))
		for i, r := range n.Rules {
			u, err := c.compileFull(r, cat)
			if err != nil {
				return nil, err
			}
			units[i] = u
		}
		return seqUnit(units), nil

	case *ir.UnionRuleOp:
		units := make([]Unit, len(n.Subqueries))
		for i, s := range n.Subqueries {
			u, err := c.compileFull(s, cat)
			if err != nil {
				return nil, err
			}
			units[i] = u
		}
		return seqUnit(units), nil

	case *ir.SPJOp:
		return c.CompileSPJ(n, cat)
	}
	return nil, fmt.Errorf("lambda: cannot compile %T", op)
}

// compileSnippet compiles only op's own control structure; every child is a
// continuation back into the interpreter.
func (c Compiler) compileSnippet(op ir.Op, cat *storage.Catalog) (Unit, error) {
	cont := func(child ir.Op) Unit {
		return func(in *interp.Interp) error { return in.Exec(child) }
	}
	switch n := op.(type) {
	case *ir.ProgramOp:
		units := make([]Unit, len(n.Body))
		for i, ch := range n.Body {
			units[i] = cont(ch)
		}
		return seqUnit(units), nil
	case *ir.DoWhileOp:
		units := make([]Unit, len(n.Body))
		for i, ch := range n.Body {
			units[i] = cont(ch)
		}
		body := seqUnit(units)
		preds := n.Preds
		return func(in *interp.Interp) error {
			for {
				if in.Cancelled() {
					return interp.ErrCancelled
				}
				if err := body(in); err != nil {
					return err
				}
				in.Stats.Iterations++
				if interp.DeltasEmpty(in.Cat, preds) {
					return nil
				}
			}
		}, nil
	case *ir.UnionAllOp:
		units := make([]Unit, len(n.Rules))
		for i, ch := range n.Rules {
			units[i] = cont(ch)
		}
		return seqUnit(units), nil
	case *ir.UnionRuleOp:
		units := make([]Unit, len(n.Subqueries))
		for i, ch := range n.Subqueries {
			units[i] = cont(ch)
		}
		return seqUnit(units), nil
	default:
		// Leaves have no children; snippet equals full.
		return c.compileFull(op, cat)
	}
}

func (c Compiler) compileSeq(ops []ir.Op, cat *storage.Catalog) (Unit, error) {
	units := make([]Unit, len(ops))
	for i, o := range ops {
		u, err := c.compileFull(o, cat)
		if err != nil {
			return nil, err
		}
		units[i] = u
	}
	return seqUnit(units), nil
}

func seqUnit(units []Unit) Unit {
	return func(in *interp.Interp) error {
		for _, u := range units {
			if err := u(in); err != nil {
				return err
			}
		}
		return nil
	}
}

// matchFn consumes the variable bindings after all steps matched.
type matchFn func(in *interp.Interp, bind []storage.Value)

// stepFn is one precompiled step combinator: it reads/extends bind and calls
// into the next combinator for every match.
type stepFn func(in *interp.Interp, bind []storage.Value)

// CompileSPJ freezes the subquery's current atom order into a closure chain.
// Exported so the quotes backend can splice subquery bodies.
func (c Compiler) CompileSPJ(spj *ir.SPJOp, cat *storage.Catalog) (Unit, error) {
	plan, err := interp.BuildPlan(spj, cat)
	if err != nil {
		return nil, err
	}
	return CompilePlan(plan), nil
}

// chainInst is one privately-stitched instance of a unit's combinator
// chain: the step closures own their scratch buffers, so distinct instances
// can run concurrently. Instances recycle through the unit's pool.
type chainInst struct {
	chain stepFn
	bind  []storage.Value
	sink  *storage.PredicateDB // the emit's sink, resolved per invocation
}

// CompilePlan stitches the plan's steps into combinators. Units are cached
// in the shared store and may be invoked concurrently by engines serving
// different sessions, so each concurrent execution draws its own stitched
// chain — scratch buffers and all — from a pool, the same frame discipline
// shard units use. A unit runs on the coordinating goroutine and ensures the
// delta indexes its plan probes.
func CompilePlan(plan *interp.Plan) Unit {
	numVars := plan.NumVars
	agg := plan.Agg
	sinkPred := plan.Sink
	if agg.Kind == ast.AggNone {
		pool := &sync.Pool{New: func() any {
			ci := &chainInst{bind: make([]storage.Value, numVars)}
			ci.chain = compileEmit(plan, ci)
			for i := len(plan.Steps) - 1; i >= 0; i-- {
				ci.chain = compileStep(&plan.Steps[i], ci.chain, i == 0)
			}
			return ci
		}}
		return func(in *interp.Interp) error {
			in.Stats.SPJRuns++
			interp.EnsureDeltaIndexes(plan, in.Cat)
			ci := pool.Get().(*chainInst)
			for i := range ci.bind {
				ci.bind[i] = 0
			}
			ci.sink = in.Cat.Pred(sinkPred)
			ci.chain(in, ci.bind)
			ci.sink = nil
			pool.Put(ci)
			return nil
		}
	}
	// Aggregation: accumulate matches, then sink groups.
	headLen := len(plan.Head)
	head := plan.Head
	return func(in *interp.Interp) error {
		in.Stats.SPJRuns++
		interp.EnsureDeltaIndexes(plan, in.Cat)
		a := eval.NewAggregator(agg.Kind, headLen, agg.HeadPos)
		bind := make([]storage.Value, numVars)
		tmp := make([]storage.Value, headLen)
		collect := func(in *interp.Interp, b []storage.Value) {
			for hi, h := range head {
				if h.IsConst {
					tmp[hi] = h.Const
				} else {
					tmp[hi] = b[h.Var]
				}
			}
			var v storage.Value
			if agg.Kind != ast.AggCount {
				v = b[agg.OverVar]
			}
			a.Add(tmp, v)
		}
		// Rebuild the chain with the collecting sink.
		cchain := stepFn(collect)
		for i := len(plan.Steps) - 1; i >= 0; i-- {
			cchain = compileStep(&plan.Steps[i], cchain, i == 0)
		}
		cchain(in, bind)
		sink := in.Cat.Pred(sinkPred)
		a.Emit(func(t []storage.Value) {
			in.Stats.Matches++
			if sink.Emit(t) {
				in.Stats.Derivations++
			}
		})
		return nil
	}
}

// compileEmit builds the emit of ci's chain, into the sink the unit
// resolved for this invocation (ci.sink).
func compileEmit(plan *interp.Plan, ci *chainInst) stepFn {
	head := plan.Head
	// Scratch is private to one chain instance (chains never re-enter
	// themselves), so buffers can be allocated at stitch time.
	tuple := make([]storage.Value, len(head))
	return func(in *interp.Interp, bind []storage.Value) {
		for hi, h := range head {
			if h.IsConst {
				tuple[hi] = h.Const
			} else {
				tuple[hi] = bind[h.Var]
			}
		}
		in.Stats.Matches++
		if ci.sink.Emit(tuple) {
			in.Stats.Derivations++
		}
	}
}

// compileStep selects a precompiled combinator for one step and binds it to
// the continuation — the paper's "stitching" of higher-order functions.
// The outermost relational step polls cancellation once per row.
func compileStep(st *interp.Step, next stepFn, outermost bool) stepFn {
	switch st.Kind {
	case interp.StepScan, interp.StepProbe, interp.StepProbeN:
		return compileRelStep(st, next, outermost)
	case interp.StepNegCheck:
		pred, src := st.Pred, st.Src
		tmpl := st.Tmpl
		tuple := make([]storage.Value, len(tmpl))
		return func(in *interp.Interp, bind []storage.Value) {
			rel, _ := interp.SourceRel(in.Cat, pred, src) // a negated atom is never Old
			for i, tm := range tmpl {
				tuple[i] = resolveTmpl(tm, bind)
			}
			if !rel.Contains(tuple) {
				next(in, bind)
			}
		}
	case interp.StepBuiltin:
		b := st.Builtin
		args := st.Args
		out := st.Out
		outVar := st.OutVar
		vals := make([]storage.Value, len(args))
		if out < 0 {
			return func(in *interp.Interp, bind []storage.Value) {
				for i, a := range args {
					vals[i] = resolveTmpl(a, bind)
				}
				if eval.Check(b, vals) {
					next(in, bind)
				}
			}
		}
		return func(in *interp.Interp, bind []storage.Value) {
			for i, a := range args {
				if i != out {
					vals[i] = resolveTmpl(a, bind)
				}
			}
			if v, ok := eval.Solve(b, vals, out); ok {
				bind[outVar] = v
				next(in, bind)
			}
		}
	}
	return next
}

func compileRelStep(st *interp.Step, next stepFn, outermost bool) stepFn {
	pred, src := st.Pred, st.Src
	checks := st.Checks
	binds := st.Binds
	match := func(in *interp.Interp, bind []storage.Value, row []storage.Value) {
		for _, ck := range checks {
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
		for _, b := range binds {
			bind[b.Var] = row[b.Col]
		}
		next(in, bind)
	}
	if st.Kind == interp.StepProbe {
		col := st.ProbeCol
		key := st.ProbeKey
		return func(in *interp.Interp, bind []storage.Value) {
			rel, below := interp.SourceRel(in.Cat, pred, src)
			k := resolveTmpl(key, bind)
			// EachProbeBelow owns the access-path choice: the global index
			// on a flat relation, read below the bound (Old's), per-bucket
			// indexes (routed to one bucket for a shard-key probe) on a
			// physical one, filtered scan on a miss.
			rel.EachProbeBelow(below, col, k, func(row []storage.Value) bool {
				match(in, bind, row)
				return true
			})
		}
	}
	if st.Kind == interp.StepProbeN {
		cols := st.ProbeCols
		keys := st.ProbeKeys
		vals := make([]storage.Value, len(keys))
		return func(in *interp.Interp, bind []storage.Value) {
			rel, below := interp.SourceRel(in.Cat, pred, src)
			for ki, k := range keys {
				vals[ki] = resolveTmpl(k, bind)
			}
			rel.EachProbeCompositeBelow(below, cols, vals, func(row []storage.Value) bool {
				match(in, bind, row)
				return true
			})
		}
	}
	if outermost {
		return func(in *interp.Interp, bind []storage.Value) {
			rel, below := interp.SourceRel(in.Cat, pred, src)
			rel.EachBelow(below, func(row []storage.Value) bool {
				if in.Cancelled() {
					return false
				}
				match(in, bind, row)
				return true
			})
		}
	}
	return func(in *interp.Interp, bind []storage.Value) {
		rel, below := interp.SourceRel(in.Cat, pred, src)
		rel.EachBelow(below, func(row []storage.Value) bool {
			match(in, bind, row)
			return true
		})
	}
}

func resolveTmpl(t interp.TmplElem, bind []storage.Value) storage.Value {
	if t.IsConst {
		return t.Const
	}
	return bind[t.Var]
}
