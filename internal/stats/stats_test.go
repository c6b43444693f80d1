package stats

import (
	"math"
	"testing"

	"carac/internal/ast"
	"carac/internal/ir"
	"carac/internal/storage"
)

func TestCatalogCardAndDistinct(t *testing.T) {
	cat := storage.NewCatalog()
	id := cat.Declare("r", 2)
	p := cat.Pred(id)
	p.BuildIndexes([]int{0})
	for i := int32(0); i < 20; i++ {
		p.AddFact([]storage.Value{i % 4, i})
	}
	cs := Catalog{Cat: cat}
	if got := cs.Card(id, ir.SrcDerived); got != 20 {
		t.Fatalf("Card = %d, want 20", got)
	}
	if got := cs.Card(id, ir.SrcDelta); got != 0 {
		t.Fatalf("delta Card = %d, want 0", got)
	}
	if got := cs.Distinct(id, ir.SrcDerived, 0); got != 4 {
		t.Fatalf("Distinct = %d, want 4", got)
	}
	if got := cs.Distinct(id, ir.SrcDerived, 1); got != -1 {
		t.Fatalf("unindexed Distinct = %d, want -1", got)
	}
}

// TestDriftCounterMonotone: the per-predicate counter must advance on every
// insert, swap, truncate, and clear, and never decrease — the invariant the
// unit cache's equality fast path relies on.
func TestDriftCounterMonotone(t *testing.T) {
	cat := storage.NewCatalog()
	id := cat.Declare("r", 2)
	p := cat.Pred(id)
	last := p.DriftCounter()
	step := func(what string, f func()) {
		f()
		got := p.DriftCounter()
		if got <= last {
			t.Fatalf("%s: counter %d did not advance past %d", what, got, last)
		}
		last = got
	}
	step("AddFact", func() { p.AddFact([]storage.Value{1, 2}) })
	step("DeltaNew insert", func() { p.DeltaNew.Insert([]storage.Value{3, 4}) })
	step("SwapClear", func() { p.SwapClear() })
	step("second fact", func() { p.AddFact([]storage.Value{5, 6}) })
	step("TruncateTo", func() { p.Derived.TruncateTo(1) })
	step("Reset", func() { p.Reset() })

	// Duplicate insert and no-op clear must NOT advance (no content change).
	p.AddFact([]storage.Value{9, 9})
	before := p.DriftCounter()
	p.AddFact([]storage.Value{9, 9})
	p.DeltaNew.Clear() // already empty
	if got := p.DriftCounter(); got != before {
		t.Fatalf("no-op mutations moved the counter: %d -> %d", before, got)
	}
}

func TestFreezeSnapshotsAndStaysPut(t *testing.T) {
	cat := storage.NewCatalog()
	e := cat.Declare("e", 2)
	spj := &ir.SPJOp{
		NumVars: 2,
		Atoms: []ir.Atom{
			{Kind: ast.AtomRelation, Pred: e, Terms: []ast.Term{ast.V(0), ast.V(1)}, Src: ir.SrcDerived},
		},
		DeltaIdx: -1,
	}
	cat.Pred(e).AddFact([]storage.Value{1, 2})
	f := Freeze(spj, Catalog{Cat: cat})
	if got := f.Card(e, ir.SrcDerived); got != 1 {
		t.Fatalf("frozen Card = %d, want 1", got)
	}
	cat.Pred(e).AddFact([]storage.Value{3, 4})
	if got := f.Card(e, ir.SrcDerived); got != 1 {
		t.Fatalf("frozen Card moved with live data: %d", got)
	}
	if got := (Catalog{Cat: cat}).Card(e, ir.SrcDerived); got != 2 {
		t.Fatalf("live Card = %d, want 2", got)
	}
}

func TestProfileCapture(t *testing.T) {
	cat := storage.NewCatalog()
	id := cat.Declare("r", 1)
	for i := int32(0); i < 12; i++ {
		cat.Pred(id).AddFact([]storage.Value{i})
	}
	prof := CaptureProfile(cat, 4)
	if got := prof.Card(id, ir.SrcDerived); got != 12 {
		t.Fatalf("profile derived = %d, want 12", got)
	}
	if got := prof.Card(id, ir.SrcDelta); got != 3 {
		t.Fatalf("profile delta = %d, want 12/4", got)
	}
	// Zero iterations clamp to 1.
	prof0 := CaptureProfile(cat, 0)
	if got := prof0.Card(id, ir.SrcDelta); got != 12 {
		t.Fatalf("clamped profile delta = %d, want 12", got)
	}
}

func TestCountersEqual(t *testing.T) {
	if !CountersEqual([]uint64{1, 2}, []uint64{1, 2}) {
		t.Fatal("equal vectors reported unequal")
	}
	if CountersEqual([]uint64{1, 2}, []uint64{1, 3}) || CountersEqual([]uint64{1}, []uint64{1, 1}) {
		t.Fatal("unequal vectors reported equal")
	}
}

func TestUnitSource(t *testing.T) {
	if (Unit{}).Card(0, ir.SrcDerived) != 1 || (Unit{}).Card(5, ir.SrcDelta) != 1 {
		t.Fatal("Unit must report cardinality 1 everywhere")
	}
}

func TestDriftEdgeCases(t *testing.T) {
	if d := Drift([]int{100}, []int{150}); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("Drift = %v, want 0.5", d)
	}
	if d := Drift([]int{1, 2}, []int{1}); !math.IsInf(d, 1) {
		t.Fatalf("shape change should drift infinitely, got %v", d)
	}
	if d := Drift([]int{0}, []int{7}); math.Abs(d-7) > 1e-9 {
		t.Fatalf("zero-base drift = %v, want 7", d)
	}
	if d := Drift(nil, nil); d != 0 {
		t.Fatalf("empty drift = %v, want 0", d)
	}
}
