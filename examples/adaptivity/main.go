// Adaptivity under the hood: watch relation cardinalities drift across
// fixpoint iterations and the optimizer re-deriving join orders mid-query —
// the mechanism behind §IV's worked example, where the best order at
// iteration 1 is no longer best at iteration 7.
package main

import (
	"fmt"

	"carac/internal/analysis"
	"carac/internal/datagen"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/optimizer"
	"carac/internal/stats"
	"carac/internal/storage"
)

// tracer is an interp.Controller that logs delta cardinalities at every
// SwapClear and reorders each subquery with live statistics, printing the
// chosen order whenever it changes.
type tracer struct {
	cat    *storage.Catalog
	iter   int
	orders map[*ir.SPJOp]string
}

func (t *tracer) Enter(op ir.Op, in *interp.Interp) func() error {
	switch n := op.(type) {
	case *ir.SwapClearOp:
		t.iter++
		fmt.Printf("iteration %2d:", t.iter)
		for _, pid := range n.Preds {
			p := t.cat.Pred(pid)
			fmt.Printf("  |%sδ|=%-6d |%s⋆|=%-6d", p.Name, p.NewLen(), p.Name, p.Derived.Len())
		}
		fmt.Println()
	case *ir.SPJOp:
		live := stats.Catalog{Cat: t.cat}
		changed, err := optimizer.Reorder(n, live, optimizer.DefaultOptions())
		if err == nil && changed {
			order := optimizer.Explain(n, t.cat, live, optimizer.DefaultOptions())
			if t.orders[n] != order {
				t.orders[n] = order
				fmt.Printf("    ↳ reordered subquery (rule %d): %s\n", n.RuleIdx, order)
			}
		}
	}
	return nil
}

func main() {
	facts := datagen.CSPAGraph(150, 42)
	b := analysis.CSPA(analysis.Unoptimized, facts)

	root, err := ir.Lower(b.P.AST())
	if err != nil {
		panic(err)
	}
	cat := b.P.Catalog()
	for pid, cols := range ir.JoinKeyColumns(b.P.AST()) {
		cat.Pred(pid).BuildIndexes(cols)
	}

	fmt.Println("CSPA (adversarial atom order) with live reordering traced:")
	fmt.Println()
	tr := &tracer{cat: cat, orders: map[*ir.SPJOp]string{}}
	in := interp.New(cat, tr)
	if err := in.Run(root); err != nil {
		panic(err)
	}
	fmt.Printf("\nfixpoint: %d facts derived in %d iterations, %d subquery runs\n",
		cat.TotalDerived(), in.Stats.Iterations, in.Stats.SPJRuns)
	fmt.Println("note how orders chosen in early iterations are revised once delta")
	fmt.Println("and derived cardinalities diverge — ahead-of-time planning cannot")
	fmt.Println("anticipate this (paper §IV).")
}
