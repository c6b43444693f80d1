// Package ir defines Carac's intermediate representation: the imperative
// IROp program tree produced by partially evaluating (Futamura-projecting)
// the semi-naive Datalog evaluator onto an input program (paper §V-B1,
// Fig 4). The tree is the logical query plan for both the Datalog-specific
// operators (DoWhile, SwapClear, the union ladder) and the relational
// operators (the fused select-project-join).
//
// IROps are deliberately mutable in exactly one place: the atom order of an
// SPJOp, which the optimizer rewrites at any stage from ahead-of-time to
// mid-execution. Everything else is frozen at lowering time.
package ir

import (
	"fmt"
	"strings"

	"carac/internal/ast"
	"carac/internal/storage"
)

// Source selects which database of a predicate an atom reads. Semi-naive
// lowering (Lower) gives variant k of a recursive rule — the one whose delta
// is its k-th recursive atom — SrcDelta at that atom, SrcOld at the recursive
// atoms before it and SrcDerived at every other atom, so a body match with
// several δ tuples is derived once, by the variant of its first, instead of
// once per δ tuple.
//
// Old is a row bound on Derived, not a relation of its own
// (storage.PredicateDB.OldBound): where δ is a view of Derived's newest rows,
// Old is the rows before it; anywhere else it is all of Derived, which only
// derives some matches twice. Every executor honors the bound, lambda's pool
// task units included: a pool task reads a morsel of the flat δ, which is
// still such a view.
type Source uint8

const (
	// SrcDerived reads the full derived database (⋆, Full). EDB facts also
	// live there.
	SrcDerived Source = iota
	// SrcDelta reads the read-only delta-known database (δ).
	SrcDelta
	// SrcOld reads Derived less δ (⋆∖δ, Old): the facts known before the
	// last iteration.
	SrcOld

	numSources
)

// Valid reports whether s names a source: decoders reject any other byte.
func (s Source) Valid() bool { return s < numSources }

// Role is the storage role whose relations s reads: the delta pair for δ,
// Derived for Full and Old.
func (s Source) Role() storage.Role {
	if s == SrcDelta {
		return storage.RoleDelta
	}
	return storage.RoleDerived
}

func (s Source) String() string {
	switch s {
	case SrcDelta:
		return "δ"
	case SrcOld:
		return "⋆∖δ"
	}
	return "⋆"
}

// Atom is one conjunct of a subquery body with its database source resolved.
type Atom struct {
	Kind    ast.AtomKind
	Pred    storage.PredID // relational atoms
	Builtin ast.Builtin    // builtin atoms
	Terms   []ast.Term
	Src     Source
}

// IsRelational reports whether the atom reads a stored relation.
func (a Atom) IsRelational() bool { return a.Kind != ast.AtomBuiltin }

// ProjElem is one head position of a subquery projection.
type ProjElem struct {
	IsConst bool
	Const   storage.Value
	Var     ast.VarID
}

// OpKind tags IR nodes for granularity selection and diagnostics.
type OpKind uint8

const (
	KProgram OpKind = iota
	KDoWhile
	KScan
	KSwapClear
	KUnionAll // pink Union* in Fig 4: all rules of one predicate
	KUnionRule
	KSPJ
)

func (k OpKind) String() string {
	switch k {
	case KProgram:
		return "ProgramOp"
	case KDoWhile:
		return "DoWhileOp"
	case KScan:
		return "ScanOp"
	case KSwapClear:
		return "SwapClearOp"
	case KUnionAll:
		return "UnionOp*"
	case KUnionRule:
		return "UnionOp"
	case KSPJ:
		return "SPJ"
	default:
		return "?"
	}
}

// Op is an IR tree node. All program state lives in the storage catalog, so
// every node boundary is a safe point for switching between interpretation
// and compiled code (paper §V-B3).
type Op interface {
	Kind() OpKind
	Children() []Op
}

// ProgramOp is the root: the per-stratum sequences in dependency order.
type ProgramOp struct {
	Body []Op
}

func (*ProgramOp) Kind() OpKind     { return KProgram }
func (p *ProgramOp) Children() []Op { return p.Body }

// ScanOp seeds the fixpoint: it copies each predicate's Derived facts into
// its write-only DeltaNew so ground facts participate as "newly discovered"
// in the first iteration.
type ScanOp struct {
	Preds []storage.PredID
}

func (*ScanOp) Kind() OpKind     { return KScan }
func (s *ScanOp) Children() []Op { return nil }

// SwapClearOp merges DeltaNew into Derived, swaps the delta databases, and
// clears the new write side, for every listed predicate (paper §V-B1).
type SwapClearOp struct {
	Preds []storage.PredID
}

func (*SwapClearOp) Kind() OpKind     { return KSwapClear }
func (s *SwapClearOp) Children() []Op { return nil }

// DoWhileOp executes Body repeatedly until no listed predicate's DeltaKnown
// holds tuples after the body's trailing SwapClearOp — i.e. until an
// iteration discovers no new facts.
type DoWhileOp struct {
	Body  []Op
	Preds []storage.PredID
}

func (*DoWhileOp) Kind() OpKind     { return KDoWhile }
func (d *DoWhileOp) Children() []Op { return d.Body }

// UnionAllOp (Fig 4's pink Union*) evaluates every rule defining one
// predicate for the current iteration.
type UnionAllOp struct {
	Pred  storage.PredID
	Rules []*UnionRuleOp
}

func (*UnionAllOp) Kind() OpKind { return KUnionAll }
func (u *UnionAllOp) Children() []Op {
	out := make([]Op, len(u.Rules))
	for i, r := range u.Rules {
		out[i] = r
	}
	return out
}

// UnionRuleOp (Fig 4's yellow Union) evaluates one rule definition: the
// union of its delta subqueries (or a single naive subquery in prologues).
type UnionRuleOp struct {
	RuleIdx    int
	Subqueries []*SPJOp
}

func (*UnionRuleOp) Kind() OpKind { return KUnionRule }
func (u *UnionRuleOp) Children() []Op {
	out := make([]Op, len(u.Subqueries))
	for i, s := range u.Subqueries {
		out[i] = s
	}
	return out
}

// SPJOp is the fused σπ⋈ leaf: an n-way join over Atoms (in their current,
// optimizer-controlled order) projecting Head into the sink predicate's
// DeltaNew, with set difference against Derived inlined at the insert
// (paper §V-B1). DeltaIdx identifies the atom reading the delta database
// (-1 for naive/prologue subqueries). Agg, when set, routes matches through
// a grouped aggregator before sinking.
type SPJOp struct {
	RuleIdx  int
	Sink     storage.PredID
	Head     []ProjElem
	Atoms    []Atom
	NumVars  int
	DeltaIdx int // index into Atoms, -1 if none
	Agg      ast.AggSpec
}

func (*SPJOp) Kind() OpKind     { return KSPJ }
func (s *SPJOp) Children() []Op { return nil }

// DeltaAtom returns the index of the atom currently reading SrcDelta, or -1.
// The optimizer moves atoms, so DeltaIdx is maintained by Reorder; this
// recomputes it from sources as a cross-check.
func (s *SPJOp) DeltaAtom() int {
	for i, a := range s.Atoms {
		if a.IsRelational() && a.Src == SrcDelta {
			return i
		}
	}
	return -1
}

// Walk visits op and all descendants in pre-order.
func Walk(op Op, f func(Op)) {
	f(op)
	EachChild(op, func(c Op) { Walk(c, f) })
}

// EachChild calls f with each of op's children in order, without the copy
// Children makes of a union op's typed child slice.
func EachChild(op Op, f func(Op)) {
	switch n := op.(type) {
	case *UnionAllOp:
		for _, r := range n.Rules {
			f(r)
		}
	case *UnionRuleOp:
		for _, s := range n.Subqueries {
			f(s)
		}
	default:
		for _, c := range op.Children() {
			f(c)
		}
	}
}

// Count returns the number of nodes of each kind in the tree.
func Count(op Op) map[OpKind]int {
	m := make(map[OpKind]int)
	Walk(op, func(o Op) { m[o.Kind()]++ })
	return m
}

// Dump renders the tree for debugging.
func Dump(op Op, cat *storage.Catalog) string {
	var sb strings.Builder
	var rec func(o Op, depth int)
	rec = func(o Op, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		switch n := o.(type) {
		case *UnionAllOp:
			fmt.Fprintf(&sb, "%v into %s\n", n.Kind(), cat.Pred(n.Pred).Name)
		case *SPJOp:
			fmt.Fprintf(&sb, "SPJ -> %s :- ", cat.Pred(n.Sink).Name)
			for i, a := range n.Atoms {
				if i > 0 {
					sb.WriteString(", ")
				}
				if a.IsRelational() {
					neg := ""
					if a.Kind == ast.AtomNegated {
						neg = "!"
					}
					fmt.Fprintf(&sb, "%s%s%v", neg, cat.Pred(a.Pred).Name, a.Src)
				} else {
					fmt.Fprintf(&sb, "%v/%d", a.Builtin, len(a.Terms))
				}
			}
			sb.WriteByte('\n')
		default:
			fmt.Fprintf(&sb, "%v\n", o.Kind())
		}
		for _, c := range o.Children() {
			rec(c, depth+1)
		}
	}
	rec(op, 0)
	return sb.String()
}
