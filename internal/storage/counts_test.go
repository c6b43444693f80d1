package storage

import (
	"math/rand"
	"reflect"
	"testing"
)

// countLayouts configures one relation per storage layout so count and
// deletion semantics are pinned in each: there is one, flat.
var countLayouts = []struct {
	name string
	set  func(r *Relation)
}{
	{"flat", func(*Relation) {}},
}

func TestCountsAcrossLayouts(t *testing.T) {
	for _, lo := range countLayouts {
		t.Run(lo.name, func(t *testing.T) {
			r := NewRelation("edge", 2)
			r.BuildIndex(0)
			r.BuildHistogram(0)
			lo.set(r)
			r.EnableCounts()
			for i := 0; i < 10; i++ {
				if !r.IncRef([]Value{Value(i), Value(i + 1)}) {
					t.Fatalf("IncRef of fresh tuple %d reported present", i)
				}
			}
			// Double-assert tuple 3: count 2, no content change.
			muts := r.Mutations()
			if r.IncRef([]Value{3, 4}) {
				t.Fatal("IncRef of present tuple reported new")
			}
			if r.Mutations() != muts {
				t.Fatal("IncRef on present tuple advanced the mutation counter")
			}
			if c := r.Count([]Value{3, 4}); c != 2 {
				t.Fatalf("Count(3,4) = %d, want 2", c)
			}
			if c := r.Count([]Value{7, 8}); c != 1 {
				t.Fatalf("Count(7,8) = %d, want 1", c)
			}
			// One DecRef: survives at count 1; second reaches zero.
			if rem, ok := r.DecRef([]Value{3, 4}); !ok || rem != 1 {
				t.Fatalf("DecRef #1 = (%d, %v), want (1, true)", rem, ok)
			}
			if rem, ok := r.DecRef([]Value{3, 4}); !ok || rem != 0 {
				t.Fatalf("DecRef #2 = (%d, %v), want (0, true)", rem, ok)
			}
			if _, ok := r.DecRef([]Value{99, 99}); ok {
				t.Fatal("DecRef of absent tuple reported present")
			}
			// Zombie row still present until the batch compaction removes it.
			if !r.Contains([]Value{3, 4}) {
				t.Fatal("zero-count row vanished before DeleteRows")
			}
			removed, _ := r.DeleteRows([][]Value{{3, 4}, {99, 99}}, 0)
			if removed != 1 {
				t.Fatalf("DeleteRows removed %d rows, want 1", removed)
			}
			if r.Contains([]Value{3, 4}) {
				t.Fatal("deleted tuple still present")
			}
			if r.Len() != 9 {
				t.Fatalf("Len = %d after delete, want 9", r.Len())
			}
			// Survivors keep identity, counts, indexes, and the histogram
			// invariant Total == Len.
			for i := 0; i < 10; i++ {
				if i == 3 {
					continue
				}
				tu := []Value{Value(i), Value(i + 1)}
				if !r.Contains(tu) {
					t.Fatalf("survivor %v lost", tu)
				}
				if c := r.Count(tu); c != 1 {
					t.Fatalf("survivor %v count %d, want 1", tu, c)
				}
			}
			if h, ok := r.HistogramOf(0); !ok || h.Total != uint64(r.Len()) {
				t.Fatalf("histogram total %d != Len %d", h.Total, r.Len())
			}
			found := 0
			r.ScanKey(0, AllRows, []int{0}, []Value{5}, func(row []Value) bool { found++; return true })
			if found != 1 {
				t.Fatalf("probe after delete found %d rows, want 1", found)
			}
			// Re-assert the deleted tuple: back with count 1.
			if !r.IncRef([]Value{3, 4}) {
				t.Fatal("re-assert after delete reported present")
			}
			if c := r.Count([]Value{3, 4}); c != 1 {
				t.Fatalf("re-asserted count %d, want 1", c)
			}
		})
	}
}

func TestDeleteRowsBatchAccounting(t *testing.T) {
	for _, lo := range countLayouts {
		t.Run(lo.name, func(t *testing.T) {
			r := NewRelation("edge", 2)
			lo.set(r)
			for i := 0; i < 8; i++ {
				r.Insert([]Value{Value(i), Value(i)})
			}
			before := r.Mutations()
			if removed, _ := r.DeleteRows([][]Value{{100, 100}}, 0); removed != 0 {
				t.Fatalf("removed %d absent rows", removed)
			}
			if r.Mutations() != before {
				t.Fatal("no-op DeleteRows advanced the mutation counter")
			}
			removed, _ := r.DeleteRows([][]Value{{1, 1}, {5, 5}, {6, 6}}, 0)
			if removed != 3 {
				t.Fatalf("removed %d, want 3", removed)
			}
			if got := r.Mutations(); got != before+1 {
				t.Fatalf("batch delete advanced counter by %d, want 1", got-before)
			}
			if r.Len() != 5 {
				t.Fatalf("Len = %d, want 5", r.Len())
			}
		})
	}
}

func TestDeleteRowsBoundary(t *testing.T) {
	r := NewRelation("edge", 2)
	r.EnableCounts()
	for i := 0; i < 6; i++ {
		r.Insert([]Value{Value(i), Value(i)})
	}
	// Ground prefix is rows [0, 4); rows 4 and 5 play derived suffix.
	removed, below := r.DeleteRows([][]Value{{1, 1}, {5, 5}}, 4)
	if removed != 2 || below != 1 {
		t.Fatalf("DeleteRows = (%d, %d), want (2, 1)", removed, below)
	}
	if row, ok := r.RowOf([]Value{2, 2}); !ok || row != 1 {
		t.Fatalf("RowOf(2,2) = (%d, %v) after compaction, want (1, true)", row, ok)
	}
}

func TestDeleteRowsPinnedCopyOnFlip(t *testing.T) {
	r := NewRelation("edge", 2)
	for i := 0; i < 4; i++ {
		r.Insert([]Value{Value(i), Value(i)})
	}
	view := r.PinRows()
	if removed, _ := r.DeleteRows([][]Value{{0, 0}, {2, 2}}, 0); removed != 2 {
		t.Fatal("delete under pin failed")
	}
	// The pinned epoch view must still serve the pre-delete rows verbatim.
	if view.Len() != 4 {
		t.Fatalf("pinned view shrank to %d rows", view.Len())
	}
	for i := 0; i < 4; i++ {
		row := view.Row(i)
		if row[0] != Value(i) || row[1] != Value(i) {
			t.Fatalf("pinned row %d rewritten to %v", i, row)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("relation Len = %d, want 2", r.Len())
	}
}

// TestCountsSurviveLayoutTransitions: counts travel with their rows through
// every move to another slab — a pinned arena's copy-on-flip under
// TruncateTo and DeleteRows, and an AssertAt splice.
func TestCountsSurviveLayoutTransitions(t *testing.T) {
	r := NewRelation("fact", 3) // arity 3: packed-string key shape
	r.EnableCounts()
	r.Insert([]Value{1, 2, 3})
	r.IncRef([]Value{1, 2, 3})
	r.IncRef([]Value{1, 2, 3})
	r.Insert([]Value{4, 5, 6})
	r.Insert([]Value{7, 8, 9})
	r.Insert([]Value{2, 4, 6})
	r.PinRows()
	r.TruncateTo(3)
	if c := r.Count([]Value{1, 2, 3}); c != 3 || r.Pinned() {
		t.Fatalf("count after a pinned truncate = %d (still pinned %v), want 3", c, r.Pinned())
	}
	r.PinRows()
	if removed, _ := r.DeleteRows([][]Value{{7, 8, 9}}, 0); removed != 1 {
		t.Fatalf("DeleteRows removed %d rows, want 1", removed)
	}
	if c := r.Count([]Value{1, 2, 3}); c != 3 {
		t.Fatalf("count after a pinned compaction = %d, want 3", c)
	}
	if added, _ := r.AssertAt([][]Value{{9, 9, 9}, {9, 9, 9}}, 1); len(added) != 1 {
		t.Fatalf("AssertAt added %v, want one tuple", added)
	}
	if c := r.Count([]Value{1, 2, 3}); c != 3 {
		t.Fatalf("count after a splice = %d, want 3", c)
	}
	if c := r.Count([]Value{9, 9, 9}); c != 2 {
		t.Fatalf("count of a twice-asserted splice = %d, want 2", c)
	}
	if c := r.Count([]Value{4, 5, 6}); c != 1 {
		t.Fatalf("count of single-assert tuple = %d, want 1", c)
	}
	if rem, ok := r.DecRef([]Value{1, 2, 3}); !ok || rem != 2 {
		t.Fatalf("DecRef after the moves = (%d, %v), want (2, true)", rem, ok)
	}
}

func TestTruncateKeepsCounts(t *testing.T) {
	r := NewRelation("edge", 2)
	r.EnableCounts()
	for i := 0; i < 6; i++ {
		r.Insert([]Value{Value(i), Value(i)})
	}
	r.IncRef([]Value{1, 1})
	r.TruncateTo(3)
	if c := r.Count([]Value{1, 1}); c != 2 {
		t.Fatalf("count after truncate = %d, want 2", c)
	}
	if c := r.Count([]Value{5, 5}); c != 0 {
		t.Fatalf("truncated row still counted: %d", c)
	}
	if row, ok := r.RowOf([]Value{2, 2}); !ok || row != 2 {
		t.Fatalf("RowOf after truncate = (%d, %v), want (2, true)", row, ok)
	}
	r.Clear()
	if c := r.Count([]Value{1, 1}); c != 0 {
		t.Fatalf("count survived Clear: %d", c)
	}
}

// TestDeleteRowIDsMatchesDeleteRows is the model test of the row-id deletion
// entry: on twin relations built by the same random history, deleting a batch
// given as a bitset over row ids (drawn with repeats and in any order, on
// both sides of the boundary, the bitset sometimes shorter than the
// relation) must leave exactly what DeleteRows leaves given the same rows as
// tuples — rows in order, counts, indexes, mutation counter and return
// values — and a pinned epoch's rows must be detached first, never
// rewritten.
func TestDeleteRowIDsMatchesDeleteRows(t *testing.T) {
	for _, lo := range countLayouts {
		t.Run(lo.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 200; round++ {
				build := func() *Relation {
					r := NewRelation("twin", 2)
					r.BuildIndex(1)
					lo.set(r)
					r.EnableCounts()
					return r
				}
				byTuple, byID := build(), build()
				n := 1 + rng.Intn(60)
				for i := 0; i < n; i++ {
					row := []Value{Value(rng.Intn(12)), Value(rng.Intn(12))}
					byTuple.IncRef(row)
					byID.IncRef(row)
				}
				n = byID.Len()
				boundary := rng.Intn(n + 1)
				var tuples [][]Value
				dead := make([]uint64, (n+63)/64)
				for k := rng.Intn(n + 4); k > 0; k-- {
					id := int32(rng.Intn(n))
					dead[id>>6] |= 1 << (id & 63)
					tuples = append(tuples, append([]Value(nil), byID.Row(id)...))
				}
				// Trailing zero words may be left off.
				for len(dead) > 0 && dead[len(dead)-1] == 0 && rng.Intn(2) == 0 {
					dead = dead[:len(dead)-1]
				}
				pin := byID.PinRows()
				before := byID.Snapshot()
				muts := byID.Mutations()

				wantRemoved, wantBelow := byTuple.DeleteRows(tuples, boundary)
				removed, below := byID.DeleteRowIDs(dead, boundary)
				if removed != wantRemoved || below != wantBelow {
					t.Fatalf("round %d: DeleteRowIDs = (%d, %d), DeleteRows = (%d, %d)", round, removed, below, wantRemoved, wantBelow)
				}
				if got, want := byID.Mutations()-muts, uint64(min(removed, 1)); got != want {
					t.Fatalf("round %d: mutation counter advanced by %d, want %d", round, got, want)
				}
				if got, want := byID.Snapshot(), byTuple.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: rows %v, want %v", round, got, want)
				}
				for i := int32(0); i < int32(byID.Len()); i++ {
					row := byID.Row(i)
					if got, ok := byID.RowOf(row); !ok || got != i {
						t.Fatalf("round %d: RowOf(%v) = (%d, %v), want %d", round, row, got, ok, i)
					}
					if got, want := byID.CountAt(i), byTuple.Count(row); got != want {
						t.Fatalf("round %d: count of %v = %d, want %d", round, row, got, want)
					}
				}
				for v := Value(0); v < 12; v++ {
					got, _ := byID.Probe(1, v)
					want, _ := byTuple.Probe(1, v)
					for g, w := got.First(), want.First(); g >= 0 || w >= 0; g, w = got.Next(g), want.Next(w) {
						if g != w {
							t.Fatalf("round %d: probe(col 1 = %d) chains differ: row %d vs %d", round, v, g, w)
						}
					}
				}
				if pin.Len() != len(before) {
					t.Fatalf("round %d: pinned view has %d rows, had %d", round, pin.Len(), len(before))
				}
				for i, row := range before {
					if !reflect.DeepEqual(append([]Value(nil), pin.Row(i)...), row) {
						t.Fatalf("round %d: pinned row %d rewritten to %v, was %v", round, i, pin.Row(i), row)
					}
				}
			}
		})
	}
}
