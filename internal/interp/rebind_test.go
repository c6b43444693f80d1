package interp

import (
	"testing"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/plancache"
	"carac/internal/storage"
)

// tcShapeSPJ builds the recursive TC body shape over the given delta/edge
// predicates: sink(x,y) :- delta(x,z), e(z,y).
func tcShapeSPJ(sink, delta, e storage.PredID) *ir.SPJOp {
	return &ir.SPJOp{
		Sink:    sink,
		Head:    []ir.ProjElem{{Var: 0}, {Var: 2}},
		NumVars: 3,
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: delta, Src: ir.SrcDelta, Terms: []ast.Term{ast.V(0), ast.V(1)}},
			{Kind: ast.AtomRelation, Pred: e, Src: ir.SrcDerived, Terms: []ast.Term{ast.V(1), ast.V(2)}},
		},
		DeltaIdx: 0,
	}
}

// TestBindPlanUpgradesScanToProbe: a shared plan built against a predicate
// with no usable index keeps a scan step; rebinding it to a structurally
// identical sibling whose predicate HAS an index on the checked column must
// upgrade the step to a probe instead of inheriting the builder's weaker
// access path — and must leave the cached plan itself untouched.
func TestBindPlanUpgradesScanToProbe(t *testing.T) {
	cat := storage.NewCatalog()
	sink1 := cat.Declare("tc1", 2)
	d1 := cat.Declare("d1", 2)
	e1 := cat.Declare("e1", 2) // no indexes: the builder gets a scan
	sink2 := cat.Declare("tc2", 2)
	d2 := cat.Declare("d2", 2)
	e2 := cat.Declare("e2", 2)
	cat.Pred(e2).BuildIndexes([]int{0}) // the sibling is better indexed

	spj1 := tcShapeSPJ(sink1, d1, e1)
	spj2 := tcShapeSPJ(sink2, d2, e2)
	if k1, k2 := plancache.KeyFor(spj1), plancache.KeyFor(spj2); k1 != k2 {
		t.Fatal("fixture rules are not structurally identical")
	}

	built, err := BuildPlan(spj1, cat)
	if err != nil {
		t.Fatal(err)
	}
	if built.Steps[1].Kind != StepScan {
		t.Fatalf("builder step = %v, want scan (no index on e1)", built.Steps[1].Kind)
	}
	checksBefore := len(built.Steps[1].Checks)

	in := New(cat, nil)
	bound, ok := in.bindPlan(built, spj2)
	if !ok {
		t.Fatal("structurally identical rule failed to rebind")
	}
	st := &bound.Steps[1]
	if st.Kind != StepProbe {
		t.Fatalf("rebound step = %v, want probe (e2 has an index on column 0)", st.Kind)
	}
	if st.ProbeCol != 0 {
		t.Fatalf("rebound probe column = %d, want 0", st.ProbeCol)
	}
	if st.Pred != e2 {
		t.Fatalf("rebound step predicate = %v, want e2", st.Pred)
	}
	// The consumed equality check moved into the probe key.
	if len(st.Checks) != checksBefore-1 {
		t.Fatalf("rebound checks = %d, want %d", len(st.Checks), checksBefore-1)
	}
	// Cached artifact stays immutable: builder's plan still scans with its
	// original checks.
	if built.Steps[1].Kind != StepScan || len(built.Steps[1].Checks) != checksBefore {
		t.Fatalf("rebind mutated the cached plan: %+v", built.Steps[1])
	}
}

// revShapeSPJ builds sink(x,y) :- delta(x,y), e(y,x) — the second atom
// carries equality checks on BOTH columns, so different index registrations
// select different probe columns.
func revShapeSPJ(sink, delta, e storage.PredID) *ir.SPJOp {
	return &ir.SPJOp{
		Sink:    sink,
		Head:    []ir.ProjElem{{Var: 0}, {Var: 1}},
		NumVars: 2,
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: delta, Src: ir.SrcDelta, Terms: []ast.Term{ast.V(0), ast.V(1)}},
			{Kind: ast.AtomRelation, Pred: e, Src: ir.SrcDerived, Terms: []ast.Term{ast.V(1), ast.V(0)}},
		},
		DeltaIdx: 0,
	}
}

// TestBindPlanIncompatibleIndexes: structurally identical siblings whose
// predicates carry DISJOINT index registrations must each bind a valid
// access path from the one shared entry — the unbindable probe demotes to a
// scan and re-selects against the target's indexes — instead of ping-ponging
// the entry through rebuild/re-store cycles that nullify the cache.
func TestBindPlanIncompatibleIndexes(t *testing.T) {
	cat := storage.NewCatalog()
	sink1 := cat.Declare("s1", 2)
	d1 := cat.Declare("d1", 2)
	e1 := cat.Declare("e1", 2)
	sink2 := cat.Declare("s2", 2)
	d2 := cat.Declare("d2", 2)
	e2 := cat.Declare("e2", 2)
	cat.Pred(e1).BuildIndexes([]int{0})
	cat.Pred(e2).BuildIndexes([]int{1})
	for i := storage.Value(0); i < 5; i++ {
		cat.Pred(d1).DeltaKnown.Insert([]storage.Value{i, i + 1})
		cat.Pred(d2).DeltaKnown.Insert([]storage.Value{i, i + 1})
		cat.Pred(e1).Derived.Insert([]storage.Value{i + 1, i})
		cat.Pred(e2).Derived.Insert([]storage.Value{i + 1, i})
	}
	spj1 := revShapeSPJ(sink1, d1, e1)
	spj2 := revShapeSPJ(sink2, d2, e2)

	built, err := BuildPlan(spj1, cat)
	if err != nil {
		t.Fatal(err)
	}
	if built.Steps[1].Kind != StepProbe || built.Steps[1].ProbeCol != 0 {
		t.Fatalf("builder step = %+v, want probe on col 0", built.Steps[1])
	}
	in := New(cat, nil)
	bound, ok := in.bindPlan(built, spj2)
	if !ok {
		t.Fatal("incompatible-index sibling failed to bind")
	}
	if st := &bound.Steps[1]; st.Kind != StepProbe || st.ProbeCol != 1 {
		t.Fatalf("rebound step = %+v, want probe re-selected on col 1", st)
	}
	if built.Steps[1].Kind != StepProbe || built.Steps[1].ProbeCol != 0 {
		t.Fatalf("rebind mutated the cached plan: %+v", built.Steps[1])
	}

	// End to end: one build serves both siblings repeatedly — no thrash.
	in.Plans = plancache.New[*Plan](plancache.Policy{})
	for round := 0; round < 3; round++ {
		if err := in.execSPJ(spj1); err != nil {
			t.Fatal(err)
		}
		if err := in.execSPJ(spj2); err != nil {
			t.Fatal(err)
		}
	}
	if in.Stats.PlanBuilds != 1 {
		t.Fatalf("%d plan builds across 6 executions of 2 siblings, want 1 (entry thrash)", in.Stats.PlanBuilds)
	}
	if in.Stats.PlanReuses != 5 {
		t.Fatalf("%d plan reuses, want 5: %+v", in.Stats.PlanReuses, in.Stats)
	}
	cat.Pred(sink1).SwapClear()
	cat.Pred(sink2).SwapClear()
	if n1, n2 := cat.Pred(sink1).DeltaKnown.Len(), cat.Pred(sink2).DeltaKnown.Len(); n1 == 0 || n1 != n2 {
		t.Fatalf("siblings derived %d vs %d tuples", n1, n2)
	}
}

// TestBindPlanUpgradeEndToEnd: through the plan cache, the upgraded sibling
// actually executes with the probe — derived results match the scan path.
func TestBindPlanUpgradeEndToEnd(t *testing.T) {
	cat := storage.NewCatalog()
	sink1 := cat.Declare("tc1", 2)
	d1 := cat.Declare("d1", 2)
	e1 := cat.Declare("e1", 2)
	sink2 := cat.Declare("tc2", 2)
	d2 := cat.Declare("d2", 2)
	e2 := cat.Declare("e2", 2)
	cat.Pred(e2).BuildIndexes([]int{0})
	for i := storage.Value(0); i < 6; i++ {
		cat.Pred(d1).DeltaKnown.Insert([]storage.Value{i, i + 1})
		cat.Pred(d2).DeltaKnown.Insert([]storage.Value{i, i + 1})
		cat.Pred(e1).Derived.Insert([]storage.Value{i + 1, i + 2})
		cat.Pred(e2).Derived.Insert([]storage.Value{i + 1, i + 2})
	}

	in := New(cat, nil)
	in.Plans = plancache.New[*Plan](plancache.Policy{})
	if err := in.execSPJ(tcShapeSPJ(sink1, d1, e1)); err != nil {
		t.Fatal(err)
	}
	if err := in.execSPJ(tcShapeSPJ(sink2, d2, e2)); err != nil {
		t.Fatal(err)
	}
	if in.Stats.PlanReuses == 0 {
		t.Fatalf("sibling did not reuse the shared plan: %+v", in.Stats)
	}
	cat.Pred(sink1).SwapClear()
	cat.Pred(sink2).SwapClear()
	n1 := cat.Pred(sink1).DeltaKnown.Len()
	n2 := cat.Pred(sink2).DeltaKnown.Len()
	if n1 == 0 || n1 != n2 {
		t.Fatalf("upgraded sibling derived %d tuples, scan path %d", n2, n1)
	}
}
