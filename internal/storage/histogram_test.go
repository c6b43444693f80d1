package storage

import (
	"fmt"
	"math/rand"
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
// flat and a physically sharded relation with
// histograms registered on both columns, asserting after every step that each
// histogram's Total equals the relation cardinality and its distribution
// matches an exact recount. A histogram-free twin runs the same sequence to
// pin the second invariant: maintenance never perturbs the mutation counter.
func TestHistogramInvariants(t *testing.T) {
	layouts := []struct {
		name  string
		setup func(r *Relation)
	}{
		{"flat", func(r *Relation) {}},
		{"physical", func(r *Relation) { r.SetShardKeyPhysical(4, 0) }},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			r := NewRelation("p", 2)
			bare := NewRelation("p", 2)
			lay.setup(r)
			lay.setup(bare)
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
			if lay.name == "flat" {
				n := r.Len() / 2
				both(func(x *Relation) { x.TruncateTo(n) })
				step("TruncateTo")
			}
			step("final")
		})
	}
}

// TestHistogramModeTransitions walks one relation through every shard-layout
// transition — flat → physical → repartitioned → flat — with content
// present, asserting the registration and the totals survive each move.
func TestHistogramModeTransitions(t *testing.T) {
	r := NewRelation("p", 2)
	r.BuildHistogram(1)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		r.Insert([]Value{Value(rng.Intn(50)), Value(rng.Intn(50))})
	}
	histCheck(t, "flat", r, 1)
	r.SetShardKeyPhysical(4, 1)
	histCheck(t, "physical", r, 1)
	r.SetShardKeyPhysical(8, 0)
	histCheck(t, "repartitioned", r, 1)
	// Each bucket's histogram recounts that bucket alone, and the bucket
	// totals sum to the whole.
	var per uint64
	for s, sub := range r.subs {
		histCheck(t, fmt.Sprintf("bucket %d", s), sub, 1)
		h, _ := sub.HistogramOf(1)
		per += h.Total
	}
	if int(per) != r.Len() {
		t.Fatalf("shard totals sum %d, Len %d", per, r.Len())
	}
	r.SetShardKeyPhysical(0, 0)
	histCheck(t, "dissolved", r, 1)
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
