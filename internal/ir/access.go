package ir

import (
	"carac/internal/ast"
	"carac/internal/storage"
)

// IndexUse is one relational atom of a lowered program that a plan may read
// through an index: its predicate, its source — so the role of the relations
// the index belongs on (Source.Role) — and its join columns, ascending: its
// constant positions and the positions of variables that occur more than
// once in its rule's body. An atom whose terms share nothing has no use.
//
// Plans choose a probe among exactly these columns (interp.BuildPlan picks
// one of a step's equality checks, each a constant or a variable an earlier
// atom bound), so registering every use on its role is all the indexes the
// plans of the program read, and no more: an index exists because some plan
// reads it (paper §IV builds indexes per rule), not because its column is a
// join key somewhere in the program.
type IndexUse struct {
	Pred storage.PredID
	Src  Source
	Cols []int
}

// IndexUses lists the uses of every positive relational atom of the SPJ
// subqueries under op. Negated atoms have none: a plan tests them by
// membership, never by probe.
func IndexUses(op Op) []IndexUse {
	var out []IndexUse
	Walk(op, func(o Op) {
		if spj, ok := o.(*SPJOp); ok {
			out = appendUses(out, spj, -1)
		}
	})
	return out
}

// RetractIndexUses lists the uses of a retraction table's subqueries
// (LowerRetract). A Rederive subquery's candidate atom, the one its DeltaIdx
// names, is the rule's head rather than a body atom: it does not count
// toward the body's variable occurrences, so the body atoms' uses are the
// rule's own.
func RetractIndexUses(rules []RetractRule) []IndexUse {
	var out []IndexUse
	for _, rr := range rules {
		for _, spj := range rr.Propagate {
			out = appendUses(out, spj, -1)
		}
		out = appendUses(out, rr.Rederive, rr.Rederive.DeltaIdx)
	}
	return out
}

// appendUses appends the uses of spj's positive relational atoms, counting
// variable occurrences over every atom but the one at skip.
func appendUses(out []IndexUse, spj *SPJOp, skip int) []IndexUse {
	occurs := func(v ast.VarID) int {
		n := 0
		for j, b := range spj.Atoms {
			if j == skip {
				continue
			}
			for _, u := range b.Terms {
				if u.Kind == ast.TermVar && u.Var == v {
					n++
				}
			}
		}
		return n
	}
	for _, a := range spj.Atoms {
		if a.Kind != ast.AtomRelation {
			continue
		}
		var cols []int
		for c, t := range a.Terms {
			if t.Kind == ast.TermConst || occurs(t.Var) > 1 {
				cols = append(cols, c)
			}
		}
		if cols != nil {
			out = append(out, IndexUse{Pred: a.Pred, Src: a.Src, Cols: cols})
		}
	}
	return out
}
