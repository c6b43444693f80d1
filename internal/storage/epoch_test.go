package storage

import (
	"fmt"
	"testing"
)

func epochRowStrings(e EpochRows) []string {
	out := make([]string, 0, e.Len())
	e.Each(func(row []Value) bool {
		out = append(out, fmt.Sprint(row))
		return true
	})
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPinRowsTruncateCopyOnFlip is the core copy-on-flip contract: a
// baseline rewind (TruncateTo) followed by re-appends must not rewrite the
// slab a pinned epoch view references.
func TestPinRowsTruncateCopyOnFlip(t *testing.T) {
	r := NewRelation("t", 2)
	for i := 0; i < 8; i++ {
		r.Insert([]Value{Value(i), Value(i + 100)})
	}
	view := r.PinRows()
	if !r.Pinned() {
		t.Fatal("relation not marked pinned after PinRows")
	}
	want := epochRowStrings(view)

	// The rewind + re-append sequence that corrupted unpinned views: without
	// the flip, rows 2..7 of the shared arena get overwritten in place.
	r.TruncateTo(2)
	if r.Pinned() {
		t.Fatal("pinned flag must clear at the flip")
	}
	for i := 0; i < 6; i++ {
		r.Insert([]Value{Value(1000 + i), Value(2000 + i)})
	}

	if got := epochRowStrings(view); !sameStrings(got, want) {
		t.Fatalf("pinned view changed:\nwant %v\ngot  %v", want, got)
	}
	if r.Len() != 8 {
		t.Fatalf("live relation length %d, want 8", r.Len())
	}
	if !r.Contains([]Value{1000, 2000}) || r.Contains([]Value{5, 105}) {
		t.Fatal("live relation content wrong after flip")
	}
}

// TestPinRowsClearVariants covers the other destructive operations.
func TestPinRowsClearVariants(t *testing.T) {
	for _, op := range []struct {
		name  string
		apply func(*Relation)
	}{
		{"Clear", func(r *Relation) { r.Clear() }},
		{"ClearRetain", func(r *Relation) { r.ClearRetain() }},
		{"TruncateToZero", func(r *Relation) { r.TruncateTo(0) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			r := NewRelation("t", 3)
			for i := 0; i < 5; i++ {
				r.Insert([]Value{Value(i), Value(i * 2), Value(i * 3)})
			}
			view := r.PinRows()
			want := epochRowStrings(view)
			op.apply(r)
			for i := 0; i < 5; i++ {
				r.Insert([]Value{Value(i + 50), Value(i + 60), Value(i + 70)})
			}
			if got := epochRowStrings(view); !sameStrings(got, want) {
				t.Fatalf("pinned view changed after %s:\nwant %v\ngot  %v", op.name, want, got)
			}
			if r.Len() != 5 {
				t.Fatalf("live length %d, want 5", r.Len())
			}
		})
	}
}

// TestPinRowsAppendWhilePinned: plain appends are legal while pinned — they
// extend past the view without disturbing it, and the view's length stays
// fixed.
func TestPinRowsAppendWhilePinned(t *testing.T) {
	r := NewRelation("t", 1)
	r.Insert([]Value{1})
	r.Insert([]Value{2})
	view := r.PinRows()
	for i := 3; i < 100; i++ {
		r.Insert([]Value{Value(i)})
	}
	if view.Len() != 2 {
		t.Fatalf("view grew with appends: len %d, want 2", view.Len())
	}
	if got := epochRowStrings(view); !sameStrings(got, []string{"[1]", "[2]"}) {
		t.Fatalf("view rows changed: %v", got)
	}
}

// TestPinRowsView pins a predicate's Derived, one arena, so the zero-copy
// pin applies.
func TestPinRowsView(t *testing.T) {
	p := newPredicateDB(0, "t", 2)
	r := p.Derived
	for i := 0; i < 16; i++ {
		r.Insert([]Value{Value(i), Value(i)})
	}
	view := r.PinRows()
	want := epochRowStrings(view)
	r.TruncateTo(3)
	for i := 0; i < 10; i++ {
		r.Insert([]Value{Value(i + 300), Value(i)})
	}
	if got := epochRowStrings(view); !sameStrings(got, want) {
		t.Fatalf("pinned view-layout rows changed")
	}
}

// TestPinnedTruncatePreservesLiveInvariants: after a copy-on-flip rewind the
// live relation's dedup, indexes, and histograms describe the fresh arena.
func TestPinnedTruncatePreservesLiveInvariants(t *testing.T) {
	r := NewRelation("t", 2)
	r.BuildIndex(0)
	r.BuildHistogram(1)
	for i := 0; i < 10; i++ {
		r.Insert([]Value{Value(i % 3), Value(i)})
	}
	_ = r.PinRows()
	r.TruncateTo(4)
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	if r.Insert([]Value{0, 0}) { // row 0 is (0,0): still deduped
		t.Fatal("dedup lost after flip")
	}
	rows, ok := probeRows(r, 0, 0)
	if !ok || len(rows) != 2 { // rows 0 and 3 have key 0 in the 4-row prefix
		t.Fatalf("index wrong after flip: ok=%v rows=%v", ok, rows)
	}
	h, ok := r.HistogramOf(1)
	if !ok || h.Total != 4 {
		t.Fatalf("histogram total %d after flip, want 4", h.Total)
	}
}

// TestCatalogEpoch pins the epoch counter surface.
func TestCatalogEpoch(t *testing.T) {
	c := NewCatalog()
	if c.Epoch() != 0 {
		t.Fatalf("fresh catalog epoch %d, want 0", c.Epoch())
	}
	if got := c.AdvanceEpoch(); got != 1 || c.Epoch() != 1 {
		t.Fatalf("first advance: returned %d, Epoch %d", got, c.Epoch())
	}
	if got := c.AdvanceEpoch(); got != 2 {
		t.Fatalf("second advance returned %d", got)
	}
}
