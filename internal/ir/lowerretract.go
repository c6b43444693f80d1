package ir

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/storage"
)

// This file lowers a program for DRed-style retraction (delete-and-rederive,
// Gupta/Mumick/Subrahmanian): when ground facts are retracted, the driver
// (internal/interp, OverDelete/Rederive) first computes the over-approximate
// set of derived tuples that MIGHT lose support — the delta-driven closure of
// the deletions through every rule — then physically removes them and runs
// one rederivation round over the reduced database, driven by the removed
// candidates, to resurrect tuples that still have an all-surviving
// derivation. Cascading rederivations and any co-batched insertions then ride
// the ordinary monotone warm-start continuation (ir.LowerWarm + SeedDelta),
// which is sound because after the removal the database is an
// under-approximation of the new fixpoint.
//
// The lowering itself only produces the SPJ shapes; the driver owns the loop
// structure, so — unlike Lower/LowerWarm — the output is a flat per-rule
// table, not an op tree.

// RetractRule is the retraction shape of one rule.
type RetractRule struct {
	// Head is the rule's sink predicate.
	Head storage.PredID
	// RuleIdx is the rule's index in the source program.
	RuleIdx int
	// Propagate holds one delta variant per positive relational body atom —
	// the LowerWarm shape, with SrcDelta reading the deletion delta: a head
	// tuple joining a doomed tuple at that position might lose support.
	Propagate []*SPJOp
	// Rederive is the naive variant driven by the over-deleted candidates:
	// the rule's body over the reduced database plus one more atom, reading
	// SrcDelta on the head predicate with the head's own terms (DeltaIdx
	// points at it). The driver stages the candidates in the head's delta, so
	// the join only ever visits bodies whose head is a candidate, and the
	// optimizer orders that atom like any other.
	Rederive *SPJOp
}

// LowerRetract builds the retraction table for prog. Like LowerWarm it is
// sound only for monotone programs: stratified negation and aggregation are
// non-monotone under deletion (a removed tuple can create derivations), so
// those programs must take the cold recompute path — callers gate on the
// error.
func LowerRetract(prog *ast.Program) ([]RetractRule, error) {
	out := make([]RetractRule, 0, len(prog.Rules))
	for ri, r := range prog.Rules {
		if r.Agg.Kind != ast.AggNone {
			return nil, fmt.Errorf("ir: retraction lowering requires a monotone program; rule %s aggregates", prog.FormatRule(r))
		}
		rr := RetractRule{Head: r.Head.Pred, RuleIdx: ri}
		for i, a := range r.Body {
			if a.Kind == ast.AtomNegated {
				return nil, fmt.Errorf("ir: retraction lowering requires a monotone program; rule %s negates %s", prog.FormatRule(r), prog.Catalog.Pred(a.Pred).Name)
			}
			if a.Kind != ast.AtomRelation {
				continue
			}
			spj, err := lowerSubquery(prog, ri, i, nil)
			if err != nil {
				return nil, err
			}
			rr.Propagate = append(rr.Propagate, spj)
		}
		naive, err := lowerSubquery(prog, ri, -1, nil)
		if err != nil {
			return nil, err
		}
		naive.DeltaIdx = len(naive.Atoms)
		naive.Atoms = append(naive.Atoms, Atom{
			Kind:  ast.AtomRelation,
			Pred:  r.Head.Pred,
			Terms: append([]ast.Term(nil), r.Head.Terms...),
			Src:   SrcDelta,
		})
		rr.Rederive = naive
		out = append(out, rr)
	}
	return out, nil
}
