// Package lambda implements Carac's Lambda compilation target (paper §V-C3):
// at runtime it stitches together higher-order functions that were compiled
// ahead of time (the step combinators of shard.go), producing an executable
// with no tree-traversal or per-run planning overhead. Like the paper's
// backend it cannot generate arbitrary code — only compositions of the
// predefined combinators — which keeps compilation nearly free while staying
// type-safe. There is one set of combinators: a sequential unit and a
// parallel pool task run the same chain, the task over its morsel of δ.
package lambda

import (
	"fmt"

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
		plan, err := interp.BuildPlan(n, cat)
		if err != nil {
			return nil, err
		}
		return CompilePlan(plan), nil
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

// CompilePlan stitches the plan's steps into the package's one combinator
// chain (shard.go) and returns the sequential unit: the chain invoked
// unrestricted, on the coordinating goroutine, after it ensures the delta
// indexes its plan probes. An aggregating plan's chain ends in the
// collecting emit, whose groups the unit sinks once the body is read whole.
// Units are cached in the shared store and may be invoked concurrently by
// engines serving different sessions: all mutable state lives in the frame
// of the invoking interpreter.
func CompilePlan(plan *interp.Plan) Unit {
	c := stitch(plan)
	return func(in *interp.Interp) error {
		interp.EnsureDeltaIndexes(c.plan, in.Cat)
		return c.run(in, 0, 0, 0)
	}
}

func resolveTmpl(t interp.TmplElem, bind []storage.Value) storage.Value {
	if t.IsConst {
		return t.Const
	}
	return bind[t.Var]
}
