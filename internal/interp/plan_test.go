package interp

import (
	"testing"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
)

// TestExecuteAllocationsIndependentOfRows: Execute allocates its bindings,
// its head and one scratch per call, and a composite probe's key and a
// builtin's arguments live in that scratch, so driving 10 or 1 000 rows
// through out(x, z) :- edge(x, y), lab(x, y, z), z < 5 allocates the same
// number of times. While each outer row allocated a key and an argument
// buffer, the 1 000-row call allocated about 2 000 times more.
func TestExecuteAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		cat := storage.NewCatalog()
		out, edge, lab := cat.Declare("out", 2), cat.Declare("edge", 2), cat.Declare("lab", 3)
		cat.Pred(lab).RegisterIndex(storage.RoleDerived, []int{0, 1})
		want := 0
		for i := range rows {
			v := storage.Value(i)
			cat.Pred(edge).Derived.Insert([]storage.Value{v, v + 1})
			cat.Pred(lab).Derived.Insert([]storage.Value{v, v + 1, v % 7})
			if v%7 < 5 {
				want++
			}
		}
		spj := &ir.SPJOp{
			Sink:    out,
			Head:    []ir.ProjElem{{Var: 0}, {Var: 2}},
			NumVars: 3,
			Atoms: []ir.Atom{
				{Kind: ast.AtomRelation, Pred: edge, Src: ir.SrcDerived, Terms: []ast.Term{ast.V(0), ast.V(1)}},
				{Kind: ast.AtomRelation, Pred: lab, Src: ir.SrcDerived, Terms: []ast.Term{ast.V(0), ast.V(1), ast.V(2)}},
				{Kind: ast.AtomBuiltin, Builtin: ast.BLt, Terms: []ast.Term{ast.V(2), ast.C(5)}},
			},
			DeltaIdx: -1,
		}
		p, err := BuildPlan(spj, cat)
		if err != nil {
			t.Fatal(err)
		}
		if p.Steps[1].Kind != StepProbeN || p.Steps[2].Kind != StepBuiltin {
			t.Fatalf("plan steps %v, %v: want a composite probe and a builtin", p.Steps[1].Kind, p.Steps[2].Kind)
		}
		matches := 0
		n := testing.AllocsPerRun(20, func() {
			matches = 0
			p.Execute(cat, func(_, _ []storage.Value) { matches++ })
		})
		if matches != want {
			t.Fatalf("%d rows: %d matches, want %d", rows, matches, want)
		}
		return n
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Fatalf("Execute allocates %v times over 10 rows and %v over 1000: a per-row allocation", small, large)
	}
}
