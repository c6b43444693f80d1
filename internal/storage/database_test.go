package storage

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestPredicateDBSwapClearMergesIntoDerived(t *testing.T) {
	c := NewCatalog()
	id := c.Declare("tc", 2)
	p := c.Pred(id)

	if !p.Emit([]Value{1, 2}) || !p.Emit([]Value{3, 4}) || p.Emit([]Value{1, 2}) {
		t.Fatal("Emit misjudged which facts are new")
	}
	if p.Derived.Len() != 0 || p.NewLen() != 2 {
		t.Fatalf("before SwapClear: Derived %d rows, δ′ to hand over %d, want 0 and 2", p.Derived.Len(), p.NewLen())
	}
	p.SwapClear()

	if p.Derived.Len() != 2 || !p.Derived.Contains([]Value{1, 2}) || !p.Derived.Contains([]Value{3, 4}) {
		t.Fatal("SwapClear did not publish the emitted facts into Derived")
	}
	if got := p.DeltaKnown.Snapshot(); fmt.Sprint(got) != "[[1 2] [3 4]]" {
		t.Fatalf("DeltaKnown should hold the previous iteration's facts in emit order, holds %v", got)
	}
	if p.DeltaNew.Len() != 0 {
		t.Fatal("DeltaNew should be cleared after swap")
	}
}

func TestPredicateDBSwapClearTwice(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("r", 1))
	p.Emit([]Value{1})
	p.SwapClear()
	if p.Emit([]Value{1}) {
		t.Fatal("a published fact was emitted as new")
	}
	p.Emit([]Value{2})
	p.SwapClear()
	if p.Derived.Len() != 2 {
		t.Fatalf("Derived = %d, want 2", p.Derived.Len())
	}
	if p.DeltaKnown.Len() != 1 || p.DeltaKnown.Row(0)[0] != 2 {
		t.Fatal("second swap lost iteration isolation")
	}
	p.SwapClear()
	if p.DeltaKnown.Len() != 0 {
		t.Fatal("empty iteration should leave empty DeltaKnown (fixpoint signal)")
	}
}

// TestEmitContract pins what Emit leaves mid-iteration and how it is left:
// a flat δ′ is owed the new rows — it accepts no write and no lookup — and
// Derived's staged rows block every operation but Contains until SwapClear
// publishes them and lends them to δ; DropStaged — the cleanup of an
// interrupted evaluation — forgets both. A Derived that rewrites rows in
// place while δ borrows them first gives δ copies of its own.
func TestEmitContract(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("r", 2))
	p.Derived.EnableCounts()
	p.AddFact([]Value{0, 0})
	p.Emit([]Value{1, 2})
	for _, mid := range []struct {
		name string
		op   func()
	}{
		{"δ′ Insert", func() { p.DeltaNew.Insert([]Value{3, 4}) }},
		{"δ′ Contains", func() { p.DeltaNew.Contains([]Value{1, 2}) }},
		{"δ′ Seed", func() { p.Seed([]Value{0, 0}) }},
		{"δ′ Seal", p.DeltaNew.Seal},
		{"Derived Insert", func() { p.Derived.Insert([]Value{3, 4}) }},
		{"Derived RowOf", func() { p.Derived.RowOf([]Value{0, 0}) }},
		{"Derived TruncateTo", func() { p.Derived.TruncateTo(0) }},
		{"Derived Clear", p.Derived.Clear},
		{"Derived DeleteRowIDs", func() { p.Derived.DeleteRowIDs([]uint64{1}, 1) }},
		{"Derived DeleteRows", func() { p.Derived.DeleteRows([][]Value{{0, 0}}, 1) }},
		{"Catalog ResetFacts", c.ResetFacts}, // last: it empties the deltas before it panics
	} {
		if !panics(mid.op) {
			t.Errorf("%s mid-iteration did not panic", mid.name)
		}
	}
	if !p.Derived.Contains([]Value{1, 2}) || p.Derived.Len() != 1 {
		t.Fatal("a staged fact must answer Contains and nothing else")
	}
	c.DropStaged()
	if p.Derived.Contains([]Value{1, 2}) || p.Derived.Len() != 1 || p.NewLen() != 0 {
		t.Fatal("DropStaged kept the staged fact or δ′'s claim on it")
	}
	p.Derived.TruncateTo(0)
	p.DeltaNew.Clear() // δ′ may always be emptied
	if !p.Emit([]Value{1, 2}) || p.NewLen() != 1 {
		t.Fatal("Emit after DropStaged")
	}
	p.SwapClear()
	if row, ok := p.Derived.RowOf([]Value{1, 2}); !ok || row != 0 {
		t.Fatalf("published row: RowOf = %d,%v", row, ok)
	}

	// Borrowed: δ reads Derived's rows through a view of its arena, and a
	// rewrite in place gives it a copy first.
	for name, rewrite := range map[string]func(d *Relation){
		"DeleteRows":   func(d *Relation) { d.DeleteRows([][]Value{{3, 4}}, 0) },
		"DeleteRowIDs": func(d *Relation) { d.DeleteRowIDs([]uint64{0b110}, 0) },
		"TruncateTo":   func(d *Relation) { d.TruncateTo(1) },
		"Clear":        func(d *Relation) { d.Clear() },
	} {
		c := NewCatalog()
		q := c.Pred(c.Declare("q", 2))
		q.Derived.EnableCounts()
		q.AddFact([]Value{1, 2})
		q.SeedAll()
		q.SwapClear()
		q.Emit([]Value{3, 4})
		q.Emit([]Value{5, 6})
		q.SwapClear()
		if !sharesRows(q.DeltaKnown, q.Derived) {
			t.Fatal("δ does not borrow Derived's newest rows")
		}
		rewrite(q.Derived)
		for i := 0; i < 4; i++ { // writes over the rewritten rows
			q.Derived.Insert([]Value{Value(-i), 9})
		}
		if got := fmt.Sprint(q.DeltaKnown.Snapshot()); q.DeltaKnown.lender != nil || got != "[[3 4] [5 6]]" {
			t.Errorf("after Derived %s δ reads %s, want its own copy of [[3 4] [5 6]]", name, got)
		}
	}
}

// sharesRows reports whether d's rows are a view of r's arena: its last rows,
// in the same memory.
func sharesRows(d, r *Relation) bool {
	n, m := len(d.arena), len(r.arena)
	return n > 0 && n <= m && &d.arena[0] == &r.arena[m-n] && d.lender == r
}

// TestPredicateDBSeedAll pins first-iteration seeding: δ′ is owed every
// ground fact and borrows them at the rotation, where they become δ.
func TestPredicateDBSeedAll(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("edge", 2))
	p.AddFact([]Value{1, 2})
	p.AddFact([]Value{2, 3})
	p.SeedAll()
	if p.NewLen() != 2 || p.DeltaNew.Len() != 0 {
		t.Fatalf("SeedAll: δ′ holds %d rows and hands over %d, want 0 and 2", p.DeltaNew.Len(), p.NewLen())
	}
	p.SwapClear()
	if p.DeltaKnown.Len() != 2 || p.Derived.Len() != 2 || !sharesRows(p.DeltaKnown, p.Derived) {
		t.Fatalf("after the rotation δ holds %d facts and Derived %d, want 2 and 2, borrowed", p.DeltaKnown.Len(), p.Derived.Len())
	}
}

// TestPredicateDBIndexesOnAllThree: BuildIndexes registers on all three
// relations. Derived answers a probe at once; a delta, whose indexes link no
// row as it arrives, refuses every probe and reads as unobserved until
// EnsureIndex catches the index up, and then answers exactly as Derived does.
func TestPredicateDBIndexesOnAllThree(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("r", 3))
	p.BuildIndexes([]int{0})
	p.BuildCompositeIndexes([][]int{{2, 0}})
	for _, row := range [][]Value{{1, 2, 5}, {1, 3, 5}, {2, 4, 6}, {1, 4, 6}} {
		p.Derived.Insert(row)
		p.DeltaKnown.Insert(row)
		p.DeltaNew.AppendDistinct(row)
	}
	comp := []int{0, 2}
	for _, rel := range []*Relation{p.DeltaKnown, p.DeltaNew} {
		if rel.indexOn([]int{0}) == nil || rel.indexOn(comp) == nil {
			t.Fatalf("%s lacks a registration", rel.Name())
		}
		visit := func([]Value) bool { return true }
		for name, probe := range map[string]func(){
			"Probe":             func() { rel.Probe(0, 1) },
			"ProbeComposite":    func() { rel.ProbeComposite(comp, []Value{1, 5}) },
			"ScanKey":           func() { rel.ScanKey(0, AllRows, []int{0}, []Value{1}, visit) },
			"ScanKey composite": func() { rel.ScanKey(0, AllRows, comp, []Value{1, 5}, visit) },
		} {
			if !panics(probe) {
				t.Errorf("%s: %s before EnsureIndex did not panic", rel.Name(), name)
			}
		}
		if d := rel.DistinctCount(0); d != -1 {
			t.Errorf("%s: DistinctCount before EnsureIndex = %d, want -1", rel.Name(), d)
		}
		rel.EnsureIndex([]int{0})
		rel.EnsureIndex(comp)
		for v := Value(0); v <= 3; v++ {
			want, _ := probeRows(p.Derived, 0, v)
			if got, ok := probeRows(rel, 0, v); !ok || !slices.Equal(got, want) {
				t.Errorf("%s: Probe(0, %d) = %v,%v, want %v", rel.Name(), v, got, ok, want)
			}
			want, _ = probeCompositeRows(p.Derived, comp, []Value{v, 5})
			if got, ok := probeCompositeRows(rel, comp, []Value{v, 5}); !ok || !slices.Equal(got, want) {
				t.Errorf("%s: ProbeComposite(%v, %d 5) = %v,%v, want %v", rel.Name(), comp, v, got, ok, want)
			}
		}
		if got, want := rel.DistinctCount(0), p.Derived.DistinctCount(0); got != want {
			t.Errorf("%s: DistinctCount = %d, want %d", rel.Name(), got, want)
		}
	}
}

func TestCatalogDeclareIdempotent(t *testing.T) {
	c := NewCatalog()
	a := c.Declare("edge", 2)
	b := c.Declare("edge", 2)
	if a != b {
		t.Fatalf("re-declare returned new id %d != %d", b, a)
	}
	if c.NumPreds() != 1 {
		t.Fatalf("NumPreds = %d, want 1", c.NumPreds())
	}
}

func TestCatalogDeclareArityConflictPanics(t *testing.T) {
	c := NewCatalog()
	c.Declare("edge", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("arity conflict should panic")
		}
	}()
	c.Declare("edge", 3)
}

func TestCatalogLookups(t *testing.T) {
	c := NewCatalog()
	id := c.Declare("vP", 2)
	p, ok := c.PredByName("vP")
	if !ok || p.ID != id {
		t.Fatalf("PredByName = %v,%v", p, ok)
	}
	if _, ok := c.PredByName("nope"); ok {
		t.Fatal("PredByName found undeclared predicate")
	}
	if c.Pred(id).Name != "vP" {
		t.Fatalf("Pred(%d).Name = %q", id, c.Pred(id).Name)
	}
}

func TestCatalogResetFacts(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("r", 1))
	p.BuildIndexes([]int{0})
	p.AddFact([]Value{1})
	p.SeedAll()
	p.SwapClear()
	p.DeltaNew.Insert([]Value{2})
	c.ResetFacts()
	if c.TotalDerived() != 0 || p.DeltaKnown.Len() != 0 || p.DeltaNew.Len() != 0 {
		t.Fatal("ResetFacts left data behind")
	}
	if p.Derived.indexOn([]int{0}) == nil || !p.IndexedColumn(RoleDerived, 0) {
		t.Fatal("ResetFacts dropped index registration")
	}
}

// Property: after any sequence of Emits and SwapClears, Emit calls a fact
// new exactly once, Derived equals the union of everything ever emitted, and
// DeltaKnown equals the genuinely-new facts of the last batch in emit order.
func TestSwapClearInvariantProperty(t *testing.T) {
	f := func(batches [][]int8) bool {
		c := NewCatalog()
		p := c.Pred(c.Declare("r", 1))
		all := map[Value]bool{}
		var lastNew []Value
		for _, batch := range batches {
			lastNew = nil
			for _, v := range batch {
				if p.Emit([]Value{Value(v)}) == all[Value(v)] {
					return false
				}
				if !all[Value(v)] {
					lastNew = append(lastNew, Value(v))
				}
				all[Value(v)] = true
			}
			p.SwapClear()
			if p.DeltaKnown.Len() != len(lastNew) {
				return false
			}
			for i, v := range lastNew {
				if p.DeltaKnown.Row(int32(i))[0] != v {
					return false
				}
			}
		}
		if p.Derived.Len() != len(all) {
			return false
		}
		for v := range all {
			if !p.Derived.Contains([]Value{v}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
