package ir

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/storage"
)

// LowerWarm lowers prog for an incremental (warm-start) evaluation: Derived
// is assumed to be pre-seeded with a previously computed fixpoint plus any
// newly ingested ground facts, and only the *new* rows — injected into the
// deltas by the interpreter's SeedDelta hook at each ScanOp — need to
// re-enter semi-naive evaluation.
//
// The shape differs from Lower in two ways, both forced by incrementality:
//
//   - Every rule joins against rows that may be old, so every positive
//     relational body atom gets a delta subquery — not just the recursive
//     (same-stratum) occurrences. A new edge fact must join old tc rows
//     through the edge-position delta; Lower's recursive-only variants would
//     silently miss those derivations when the fixpoint is pre-seeded. As in
//     Lower, variant k reads Old at the positive relational atoms before its
//     δ atom and Full after it, so a match with several δ tuples is derived
//     once, by the variant of its first. Where δ is seeded rather than lent
//     (the first warm iteration) Old reads all of Derived, which is correct
//     and only derives some matches twice (Source).
//   - There is no naive prologue: non-recursive rules ride the same
//     delta-driven loop (their variants fire exactly once, on the seeded
//     delta), so the warm path never pays a full pass over old rows.
//
// Each stratum's ScanOp and loop cover the stratum's head predicates plus
// every positive body predicate of its rules — foreign predicates (ground
// relations, earlier strata) carry their new rows into the loop through
// their own deltas.
//
// Sound and complete only for monotone programs (no stratified negation, no
// aggregation) under additions-only deltas; callers gate on that.
func LowerWarm(prog *ast.Program) (*ProgramOp, error) {
	strata, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	root := &ProgramOp{}
	for _, s := range strata {
		preds := append([]storage.PredID(nil), s.Preds...)
		seen := make(map[storage.PredID]bool, len(preds))
		for _, p := range preds {
			seen[p] = true
		}
		byHead := map[storage.PredID][]int{}
		for _, ri := range s.Rules {
			r := prog.Rules[ri]
			byHead[r.Head.Pred] = append(byHead[r.Head.Pred], ri)
			for _, a := range r.Body {
				if a.Kind == ast.AtomRelation && !seen[a.Pred] {
					seen[a.Pred] = true
					preds = append(preds, a.Pred)
				}
				if a.Kind == ast.AtomNegated {
					return nil, fmt.Errorf("ir: warm-start lowering requires a monotone program; rule %s negates %s", prog.FormatRule(r), prog.Catalog.Pred(a.Pred).Name)
				}
			}
			if r.Agg.Kind != ast.AggNone {
				return nil, fmt.Errorf("ir: warm-start lowering requires a monotone program; rule %s aggregates", prog.FormatRule(r))
			}
		}

		dw := &DoWhileOp{Preds: preds}
		for _, pid := range s.Preds {
			rules := byHead[pid]
			if len(rules) == 0 {
				continue
			}
			ua := &UnionAllOp{Pred: pid}
			for _, ri := range rules {
				r := prog.Rules[ri]
				ur := &UnionRuleOp{RuleIdx: ri}
				var old []int // the variants' δ positions so far
				for i, a := range r.Body {
					if a.Kind != ast.AtomRelation {
						continue
					}
					spj, serr := lowerSubquery(prog, ri, i, old)
					if serr != nil {
						return nil, serr
					}
					ur.Subqueries = append(ur.Subqueries, spj)
					old = append(old, i)
				}
				if len(ur.Subqueries) == 0 {
					// A pure-builtin body has no delta to drive it; evaluate
					// it naively (it fires identically every iteration and
					// dedups away after the first).
					spj, serr := lowerSubquery(prog, ri, -1, nil)
					if serr != nil {
						return nil, serr
					}
					ur.Subqueries = append(ur.Subqueries, spj)
				}
				ua.Rules = append(ua.Rules, ur)
			}
			dw.Body = append(dw.Body, ua)
		}
		dw.Body = append(dw.Body, &SwapClearOp{Preds: preds})

		root.Body = append(root.Body, &ScanOp{Preds: preds})
		root.Body = append(root.Body, &SwapClearOp{Preds: preds})
		root.Body = append(root.Body, dw)
	}
	return root, nil
}
