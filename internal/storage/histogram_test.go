package storage

import (
	"math/rand"
	"slices"
	"testing"
)

// recount rebuilds column col's histogram from the relation's live content —
// the ground truth every incrementally maintained histogram must match.
func recount(r *Relation, col int) Histogram {
	var h Histogram
	r.Each(func(row []Value) bool {
		h.add(row[col])
		return true
	})
	return h
}

// histCheck asserts the maintenance invariant on every given column: the
// histogram exists, Total equals Len(), the bucket counts sum to Total, and
// the distribution matches an exact recount of the live content.
func histCheck(t *testing.T, step string, r *Relation, cols ...int) {
	t.Helper()
	for _, c := range cols {
		h, ok := r.HistogramOf(c)
		if !ok {
			t.Fatalf("%s: col %d histogram missing", step, c)
		}
		if int(h.Total) != r.Len() {
			t.Fatalf("%s: col %d Total %d, Len %d", step, c, h.Total, r.Len())
		}
		var sum uint64
		for _, n := range h.Counts {
			sum += uint64(n)
		}
		if sum != h.Total {
			t.Fatalf("%s: col %d bucket sum %d, Total %d", step, c, sum, h.Total)
		}
		if want := recount(r, c); want != h {
			t.Fatalf("%s: col %d distribution diverged from recount", step, c)
		}
	}
}

// TestHistogramInvariants drives an identical randomized operation sequence —
// inserts, duplicate inserts, Clear, ClearRetain, TruncateTo — through a
// relation with histograms registered on both columns, asserting after every step that each
// histogram's Total equals the relation cardinality and its distribution
// matches an exact recount. A histogram-free twin runs the same sequence to
// pin the second invariant: maintenance never perturbs the mutation counter.
func TestHistogramInvariants(t *testing.T) {
	for _, lay := range []string{"flat"} {
		t.Run(lay, func(t *testing.T) {
			r := NewRelation("p", 2)
			bare := NewRelation("p", 2)
			r.BuildHistogram(0)
			r.BuildHistogram(1)

			rng := rand.New(rand.NewSource(7))
			tuple := func() []Value {
				return []Value{Value(rng.Intn(40)), Value(rng.Intn(40))}
			}
			step := func(name string) {
				t.Helper()
				histCheck(t, name, r, 0, 1)
				if r.Mutations() != bare.Mutations() {
					t.Fatalf("%s: mutation counter %d, histogram-free twin %d",
						name, r.Mutations(), bare.Mutations())
				}
			}
			both := func(f func(x *Relation)) {
				f(r)
				f(bare)
			}

			for i := 0; i < 400; i++ {
				tp := tuple()
				both(func(x *Relation) { x.Insert(tp) })
			}
			step("inserts")
			both(func(x *Relation) { x.ClearRetain() })
			step("ClearRetain")
			for i := 0; i < 200; i++ {
				tp := tuple()
				both(func(x *Relation) { x.Insert(tp) })
			}
			step("reinserts")
			both(func(x *Relation) { x.Clear() })
			step("Clear")
			for i := 0; i < 200; i++ {
				tp := tuple()
				both(func(x *Relation) { x.Insert(tp) })
			}
			n := r.Len() / 2
			both(func(x *Relation) { x.TruncateTo(n) })
			step("TruncateTo")
			step("final")
		})
	}
}

// TestHistogramModeTransitions walks histograms through every move of rows
// to another slab with content present — a pinned arena's copy-on-flip
// under TruncateTo and DeleteRows, an AssertAt splice, and a δ′ borrowing
// Derived's newest rows at SwapClear — asserting the registration and the
// totals survive each move.
func TestHistogramModeTransitions(t *testing.T) {
	r := NewRelation("p", 2)
	r.BuildHistogram(1)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		r.Insert([]Value{Value(rng.Intn(50)), Value(rng.Intn(50))})
	}
	histCheck(t, "loaded", r, 1)
	r.PinRows()
	r.TruncateTo(r.Len() / 2)
	histCheck(t, "pinned truncate", r, 1)
	r.PinRows()
	doomed := [][]Value{slices.Clone(r.Row(0)), slices.Clone(r.Row(3))}
	if removed, _ := r.DeleteRows(doomed, 0); removed != 2 {
		t.Fatalf("DeleteRows removed %d rows, want 2", removed)
	}
	histCheck(t, "pinned compaction", r, 1)
	r.AssertAt([][]Value{{900, 1}, {901, 2}}, 5)
	histCheck(t, "splice", r, 1)

	cat := NewCatalog()
	p := cat.Pred(cat.Declare("q", 2))
	p.BuildHistograms([]int{1})
	for i := 0; i < 120; i++ {
		p.Emit([]Value{Value(i), Value(rng.Intn(50))})
	}
	p.SwapClear()
	if p.DeltaKnown.Len() != 120 || p.OldBound() != 0 {
		t.Fatalf("δ holds %d rows with Old below %d, want a view of all 120", p.DeltaKnown.Len(), p.OldBound())
	}
	histCheck(t, "lent δ", p.DeltaKnown, 1)
	histCheck(t, "lender", p.Derived, 1)
}

// TestHistogramSwapClear pins the delta-exchange path: PredicateDB.SwapClear
// exchanges the delta relation structs (histograms travel with them) and
// clears the new DeltaNew, so after the swap DeltaKnown's histogram describes
// the promoted delta and DeltaNew's is empty.
func TestHistogramSwapClear(t *testing.T) {
	cat := NewCatalog()
	id := cat.Declare("p", 2)
	pd := cat.Pred(id)
	pd.BuildHistograms([]int{0, 1})
	for i := 0; i < 100; i++ {
		pd.DeltaNew.Insert([]Value{Value(i % 13), Value(i % 7)})
	}
	want := pd.DeltaNew.Len()
	pd.SwapClear()
	histCheck(t, "DeltaKnown after swap", pd.DeltaKnown, 0, 1)
	histCheck(t, "DeltaNew after swap", pd.DeltaNew, 0, 1)
	if pd.DeltaKnown.Len() != want {
		t.Fatalf("DeltaKnown lost rows: %d, want %d", pd.DeltaKnown.Len(), want)
	}
	h, _ := pd.DeltaNew.HistogramOf(0)
	if h.Total != 0 {
		t.Fatalf("DeltaNew histogram not reset: Total %d", h.Total)
	}
}
