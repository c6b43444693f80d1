package ir

import (
	"fmt"
	"slices"

	"carac/internal/ast"
	"carac/internal/storage"
)

// Lower partially evaluates the semi-naive evaluation strategy onto prog,
// producing the IROp program of Fig 4: per stratum, a seed ScanOp, the
// non-recursive rules evaluated once (naive prologue), a SwapClearOp, and —
// when the stratum is recursive — a DoWhileOp containing one UnionAllOp per
// predicate (each the union over its rules of the delta subqueries) followed
// by a SwapClearOp. A rule's delta subquery k reads δ at its k-th recursive
// atom, Old at the recursive atoms before it and Full everywhere else
// (Source).
func Lower(prog *ast.Program) (*ProgramOp, error) {
	strata, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	root := &ProgramOp{}
	for _, s := range strata {
		ops, err := lowerStratum(prog, s)
		if err != nil {
			return nil, err
		}
		root.Body = append(root.Body, ops...)
	}
	return root, nil
}

func lowerStratum(prog *ast.Program, s ast.Stratum) ([]Op, error) {
	// Partition the stratum's rules into prologue (non-recursive) and loop
	// (recursive) sets, preserving program order per predicate.
	prologueRules := map[storage.PredID][]int{}
	loopRules := map[storage.PredID][]int{}
	for _, ri := range s.Rules {
		r := prog.Rules[ri]
		rec := ast.RecursiveAtoms(prog, s, ri)
		if len(rec) == 0 {
			prologueRules[r.Head.Pred] = append(prologueRules[r.Head.Pred], ri)
		} else {
			loopRules[r.Head.Pred] = append(loopRules[r.Head.Pred], ri)
		}
	}

	var ops []Op
	ops = append(ops, &ScanOp{Preds: append([]storage.PredID(nil), s.Preds...)})

	for _, pid := range s.Preds {
		rules := prologueRules[pid]
		if len(rules) == 0 {
			continue
		}
		ua := &UnionAllOp{Pred: pid}
		for _, ri := range rules {
			spj, err := lowerSubquery(prog, ri, -1, nil)
			if err != nil {
				return nil, err
			}
			ua.Rules = append(ua.Rules, &UnionRuleOp{RuleIdx: ri, Subqueries: []*SPJOp{spj}})
		}
		ops = append(ops, ua)
	}
	ops = append(ops, &SwapClearOp{Preds: append([]storage.PredID(nil), s.Preds...)})

	hasLoop := false
	for _, pid := range s.Preds {
		if len(loopRules[pid]) > 0 {
			hasLoop = true
			break
		}
	}
	if !hasLoop {
		return ops, nil
	}

	dw := &DoWhileOp{Preds: append([]storage.PredID(nil), s.Preds...)}
	for _, pid := range s.Preds {
		rules := loopRules[pid]
		if len(rules) == 0 {
			continue
		}
		ua := &UnionAllOp{Pred: pid}
		for _, ri := range rules {
			r := prog.Rules[ri]
			ur := &UnionRuleOp{RuleIdx: ri}
			// One subquery per recursive body atom: that occurrence reads the
			// delta database, the recursive atoms before it read Old and all
			// other relational atoms read derived.
			rec := ast.RecursiveAtoms(prog, s, ri)
			for k, deltaPos := range rec {
				spj, err := lowerSubquery(prog, ri, deltaPos, rec[:k])
				if err != nil {
					return nil, err
				}
				ur.Subqueries = append(ur.Subqueries, spj)
			}
			if len(ur.Subqueries) == 0 {
				return nil, fmt.Errorf("ir: rule %s classified recursive but has no delta atoms", prog.FormatRule(r))
			}
			ua.Rules = append(ua.Rules, ur)
		}
		dw.Body = append(dw.Body, ua)
	}
	dw.Body = append(dw.Body, &SwapClearOp{Preds: append([]storage.PredID(nil), s.Preds...)})
	ops = append(ops, dw)
	return ops, nil
}

// lowerSubquery builds the SPJOp for rule ri with the body atom at deltaPos
// reading the delta database (-1 for a fully naive evaluation) and the body
// atoms at the positions old reading Old.
func lowerSubquery(prog *ast.Program, ri, deltaPos int, old []int) (*SPJOp, error) {
	r := prog.Rules[ri]
	spj := &SPJOp{
		RuleIdx:  ri,
		Sink:     r.Head.Pred,
		NumVars:  r.NumVars,
		DeltaIdx: deltaPos,
		Agg:      r.Agg,
	}
	for i, a := range r.Body {
		at := Atom{
			Kind:    a.Kind,
			Pred:    a.Pred,
			Builtin: a.Builtin,
			Terms:   append([]ast.Term(nil), a.Terms...),
			Src:     SrcDerived,
		}
		if i == deltaPos {
			if a.Kind != ast.AtomRelation {
				return nil, fmt.Errorf("ir: delta position %d of rule %s is not a positive relational atom", deltaPos, prog.FormatRule(r))
			}
			at.Src = SrcDelta
		}
		if slices.Contains(old, i) {
			at.Src = SrcOld
		}
		spj.Atoms = append(spj.Atoms, at)
	}
	for _, t := range r.Head.Terms {
		switch t.Kind {
		case ast.TermConst:
			spj.Head = append(spj.Head, ProjElem{IsConst: true, Const: t.Val})
		case ast.TermVar:
			spj.Head = append(spj.Head, ProjElem{Var: t.Var})
		}
	}
	return spj, nil
}

// LowerNaive produces a naive-evaluation IR (no delta split): a single
// DoWhileOp evaluating every rule against the full derived database each
// iteration, per stratum. This is the strategy of the DLX baseline engine
// (Table II) and the reference oracle for differential tests.
func LowerNaive(prog *ast.Program) (*ProgramOp, error) {
	strata, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	root := &ProgramOp{}
	for _, s := range strata {
		dw := &DoWhileOp{Preds: append([]storage.PredID(nil), s.Preds...)}
		perPred := map[storage.PredID]*UnionAllOp{}
		for _, pid := range s.Preds {
			perPred[pid] = &UnionAllOp{Pred: pid}
			dw.Body = append(dw.Body, perPred[pid])
		}
		for _, ri := range s.Rules {
			r := prog.Rules[ri]
			spj, err := lowerSubquery(prog, ri, -1, nil)
			if err != nil {
				return nil, err
			}
			ua := perPred[r.Head.Pred]
			ua.Rules = append(ua.Rules, &UnionRuleOp{RuleIdx: ri, Subqueries: []*SPJOp{spj}})
		}
		dw.Body = append(dw.Body, &SwapClearOp{Preds: append([]storage.PredID(nil), s.Preds...)})
		// Naive evaluation still needs the seed so the loop's exit condition
		// (empty delta) fires correctly after the first quiet iteration.
		root.Body = append(root.Body, &ScanOp{Preds: append([]storage.PredID(nil), s.Preds...)})
		root.Body = append(root.Body, &SwapClearOp{Preds: append([]storage.PredID(nil), s.Preds...)})
		root.Body = append(root.Body, dw)
	}
	return root, nil
}

// JoinKeyColumns returns, per predicate, the set of columns that appear as a
// join key or filter in any rule of the program: shared-variable positions
// and constant positions in body atoms. Histograms are registered on them;
// indexes go only where a lowered atom reads them (IndexUses).
func JoinKeyColumns(prog *ast.Program) map[storage.PredID][]int {
	cols := map[storage.PredID]map[int]bool{}
	mark := func(pid storage.PredID, col int) {
		if cols[pid] == nil {
			cols[pid] = map[int]bool{}
		}
		cols[pid][col] = true
	}
	for _, r := range prog.Rules {
		// Count variable occurrences across the whole rule body.
		occ := map[ast.VarID]int{}
		for _, a := range r.Body {
			for _, t := range a.Terms {
				if t.Kind == ast.TermVar {
					occ[t.Var]++
				}
			}
		}
		for _, a := range r.Body {
			if !a.IsRelational() {
				continue
			}
			for i, t := range a.Terms {
				switch t.Kind {
				case ast.TermConst:
					mark(a.Pred, i)
				case ast.TermVar:
					if occ[t.Var] > 1 {
						mark(a.Pred, i)
					}
				}
			}
		}
	}
	out := make(map[storage.PredID][]int, len(cols))
	for pid, set := range cols {
		for c := range set {
			out[pid] = append(out[pid], c)
		}
	}
	for _, cs := range out {
		slices.Sort(cs)
	}
	return out
}
