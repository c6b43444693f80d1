// Package quotes implements Carac's Quotes & Splices compilation target
// (paper §V-C1), substituting Go-native staged programming for Scala's
// Multi-Stage Programming: at runtime the backend *quotes* an IROp subtree
// into a typed expression tree, *type-checks* it (the validation pass that
// makes unsound generated code unrepresentable — the safety property MSP
// provides), and *splices* it by lowering to executable closures. Snippet
// mode splices interpreter continuations into the generated code so control
// flow can return to the interpreter between children, enabling continuous
// re-optimization and deoptimization.
//
// The three explicit stages (quote construction, type checking, lowering)
// make this the most expensive backend to invoke — mirroring the paper's
// trade-off of safety and expressiveness against compilation overhead — and
// the Compiler distinguishes cold starts (fresh instance, bootstrap
// self-check) from warm reuse, as measured in the paper's Fig 5.
package quotes

import (
	"fmt"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
)

// Type is the type of a staged expression.
type Type uint8

const (
	// TUnit is the type of statements.
	TUnit Type = iota
	// TVal is a single storage value.
	TVal
	// TBool is a condition.
	TBool
)

func (t Type) String() string {
	switch t {
	case TUnit:
		return "Unit"
	case TVal:
		return "Val"
	case TBool:
		return "Bool"
	default:
		return "?"
	}
}

// Expr is a staged expression — the quote. Building an Expr delays
// evaluation to a later stage; Compiler.Splice type-checks and lowers it.
type Expr interface {
	Type() Type
}

// RelRef names a relation by predicate and source, resolved at execution.
// Loops read only the rows below SourceRel's bound, so an atom reading Old
// (ir.SrcOld) skips δ.
type RelRef struct {
	Pred storage.PredID
	Src  ir.Source
}

// --- value expressions -------------------------------------------------

// ConstE is a literal value.
type ConstE struct{ V storage.Value }

// ColRef reads column Col of the row bound at nesting Level.
type ColRef struct {
	Level int
	Col   int
}

// VarRef reads a bound rule variable.
type VarRef struct{ Var ast.VarID }

func (ConstE) Type() Type { return TVal }
func (ColRef) Type() Type { return TVal }
func (VarRef) Type() Type { return TVal }

// --- conditions ---------------------------------------------------------

// EqE compares two values.
type EqE struct{ L, R Expr }

// NotContainsE holds when the tuple built from Elems is absent from Rel.
type NotContainsE struct {
	Rel   RelRef
	Elems []Expr
}

// BuiltinCheckE evaluates a fully bound builtin as a condition.
type BuiltinCheckE struct {
	B    ast.Builtin
	Args []Expr
}

func (EqE) Type() Type           { return TBool }
func (NotContainsE) Type() Type  { return TBool }
func (BuiltinCheckE) Type() Type { return TBool }

// --- statements ----------------------------------------------------------

// SeqE executes statements in order.
type SeqE struct{ Body []Expr }

// ForEachE iterates all rows of Rel, binding the row at Level for Body.
type ForEachE struct {
	Rel   RelRef
	Level int
	Body  Expr
}

// ProbeE iterates the rows of Rel whose column Col equals Key.
type ProbeE struct {
	Rel   RelRef
	Col   int
	Key   Expr
	Level int
	Body  Expr
}

// ProbeNE iterates the rows of Rel whose columns Cols equal Keys (composite
// index probe).
type ProbeNE struct {
	Rel   RelRef
	Cols  []int
	Keys  []Expr
	Level int
	Body  Expr
}

// IfE runs Then when Cond holds.
type IfE struct {
	Cond Expr
	Then Expr
}

// BindE assigns a rule variable from a value, in scope for Body.
type BindE struct {
	Var  ast.VarID
	Val  Expr
	Body Expr
}

// SolveE solves builtin B's single unknown (index Out of Args), binding Var
// for Body; no match, no execution.
type SolveE struct {
	B    ast.Builtin
	Args []Expr
	Out  int
	Var  ast.VarID
	Body Expr
}

// EmitE projects Elems into Sink through its Emit: the set difference
// against Derived and this iteration's finds, in one probe.
type EmitE struct {
	Sink  storage.PredID
	Elems []Expr
}

// SeedE seeds DeltaNew for each predicate (interp.Interp.Seed).
type SeedE struct{ Preds []storage.PredID }

// SwapClearE publishes, swaps and clears the delta databases.
type SwapClearE struct{ Preds []storage.PredID }

// LoopE repeats Body until every predicate's DeltaKnown is empty.
type LoopE struct {
	Preds []storage.PredID
	Body  Expr
}

// StatE bumps an interpreter statistic (used for SPJ run accounting).
type StatE struct{ Kind StatKind }

// StatKind selects the counter StatE bumps.
type StatKind uint8

const (
	// StatSPJ counts one subquery execution.
	StatSPJ StatKind = iota
)

// SpliceInterpE is the continuation splice: generated code calls back into
// the interpreter to execute Child (snippet compilation, paper §V-B3).
type SpliceInterpE struct{ Child ir.Op }

// CallPlanE routes one subquery through the generic plan executor
// (aggregation subqueries).
type CallPlanE struct{ SPJ *ir.SPJOp }

func (SeqE) Type() Type          { return TUnit }
func (ForEachE) Type() Type      { return TUnit }
func (ProbeE) Type() Type        { return TUnit }
func (ProbeNE) Type() Type       { return TUnit }
func (IfE) Type() Type           { return TUnit }
func (BindE) Type() Type         { return TUnit }
func (SolveE) Type() Type        { return TUnit }
func (EmitE) Type() Type         { return TUnit }
func (SeedE) Type() Type         { return TUnit }
func (SwapClearE) Type() Type    { return TUnit }
func (LoopE) Type() Type         { return TUnit }
func (StatE) Type() Type         { return TUnit }
func (SpliceInterpE) Type() Type { return TUnit }
func (CallPlanE) Type() Type     { return TUnit }

// TypeError reports a staging violation found by the type checker.
type TypeError struct {
	Node string
	Msg  string
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("quotes: type error in %s: %s", e.Node, e.Msg)
}
