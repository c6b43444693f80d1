package storage

import (
	"fmt"
	"math"
	"testing"
)

// TestDedupBoundaryValues pins duplicate elimination for the arity <= 2 hot
// shape (hashed as one packed uint64) at the domain boundaries of
// storage.Value: negative values, MinInt32, MaxInt32, and zero — duplicate
// detection, membership, and cross-pair distinctness all exact.
func TestDedupBoundaryValues(t *testing.T) {
	boundary := []Value{0, -1, 1, math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1}

	t.Run("arity1", func(t *testing.T) {
		r := NewRelation("b1", 1)
		for _, v := range boundary {
			if !r.Insert([]Value{v}) {
				t.Fatalf("first insert of %d rejected as duplicate", v)
			}
			if r.Insert([]Value{v}) {
				t.Fatalf("duplicate %d not detected", v)
			}
			if !r.Contains([]Value{v}) {
				t.Fatalf("Contains(%d) = false after insert", v)
			}
		}
		if r.Len() != len(boundary) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(boundary))
		}
	})

	t.Run("arity2", func(t *testing.T) {
		r := NewRelation("b2", 2)
		seen := 0
		for _, a := range boundary {
			for _, b := range boundary {
				if !r.Insert([]Value{a, b}) {
					t.Fatalf("first insert of (%d,%d) rejected", a, b)
				}
				seen++
				if r.Insert([]Value{a, b}) {
					t.Fatalf("duplicate (%d,%d) not detected", a, b)
				}
			}
		}
		if r.Len() != seen {
			t.Fatalf("Len = %d, want %d distinct pairs", r.Len(), seen)
		}
		// Column order must matter: (min,max) and (max,min) are distinct keys.
		if !r.Contains([]Value{math.MinInt32, math.MaxInt32}) || !r.Contains([]Value{math.MaxInt32, math.MinInt32}) {
			t.Fatal("swapped boundary pair lost")
		}
		if r.Contains([]Value{2, -1}) {
			t.Fatal("phantom membership for a never-inserted pair")
		}
	})
}

// TestDedupArityTransition pins the hash's switch at arity 3 (one multiply
// for a packed pair below it, one per column from it on): the same exactness
// at value boundaries on both sides, including tuples that differ in one
// column only.
func TestDedupArityTransition(t *testing.T) {
	for arity := 1; arity <= 5; arity++ {
		r := NewRelation(fmt.Sprintf("a%d", arity), arity)
		tuple := make([]Value, arity)
		for i := range tuple {
			tuple[i] = Value(math.MinInt32 + i)
		}
		if !r.Insert(tuple) || r.Insert(tuple) {
			t.Fatalf("arity %d: dedup wrong at boundary values", arity)
		}
		tuple[arity-1] = math.MaxInt32
		if !r.Insert(tuple) {
			t.Fatalf("arity %d: distinct tuple rejected", arity)
		}
		if r.Len() != 2 {
			t.Fatalf("arity %d: Len = %d, want 2", arity, r.Len())
		}
		// One-column differences, each column in turn.
		base := make([]Value, arity)
		r.Insert(base)
		for c := 0; c < arity; c++ {
			tuple := make([]Value, arity)
			tuple[c] = 1
			if r.Contains(tuple) {
				t.Fatalf("arity %d: phantom membership of %v", arity, tuple)
			}
			if !r.Insert(tuple) || !r.Contains(tuple) || r.Insert(tuple) {
				t.Fatalf("arity %d: dedup wrong for %v", arity, tuple)
			}
		}
		if r.Len() != 3+arity {
			t.Fatalf("arity %d: Len = %d, want %d", arity, r.Len(), 3+arity)
		}
	}
}

// TestClearRetainKeepsCapacity pins ClearRetain's contract across repeated
// fill/clear cycles — the worker-buffer recycling pattern: contents and
// membership reset every cycle, the arena capacity and index registrations
// survive, and the mutation counter advances exactly once per non-empty
// clear (never for an empty one).
func TestClearRetainKeepsCapacity(t *testing.T) {
	const rows = 512
	r := NewRelation("buf", 2)
	r.BuildIndex(0)
	fill := func() {
		for i := 0; i < rows; i++ {
			r.Insert([]Value{Value(i % 61), Value(i)})
		}
	}
	fill()
	capBefore := cap(r.arena)
	if capBefore < rows*2 {
		t.Fatalf("arena cap %d too small after %d inserts", capBefore, rows)
	}

	for cycle := 0; cycle < 5; cycle++ {
		mutsBefore := r.Mutations()
		r.ClearRetain()
		if got := r.Mutations(); got != mutsBefore+1 {
			t.Fatalf("cycle %d: non-empty ClearRetain advanced counter by %d, want 1", cycle, got-mutsBefore)
		}
		if r.Len() != 0 || !r.Empty() {
			t.Fatalf("cycle %d: relation not empty after ClearRetain", cycle)
		}
		if r.Contains([]Value{0, 0}) {
			t.Fatalf("cycle %d: stale membership after ClearRetain", cycle)
		}
		if got := cap(r.arena); got != capBefore {
			t.Fatalf("cycle %d: arena capacity not retained: %d != %d", cycle, got, capBefore)
		}
		// Empty clear: no content change, no counter movement.
		mutsBefore = r.Mutations()
		r.ClearRetain()
		if got := r.Mutations(); got != mutsBefore {
			t.Fatalf("cycle %d: empty ClearRetain advanced counter", cycle)
		}
		fill()
		if r.Len() != rows {
			t.Fatalf("cycle %d: refill found %d rows, want %d (dedup residue?)", cycle, r.Len(), rows)
		}
		// The retained index must keep answering exactly.
		if ids, ok := probeRows(r, 0, 7); !ok || len(ids) == 0 {
			t.Fatalf("cycle %d: index lost after ClearRetain (ok=%v hits=%d)", cycle, ok, len(ids))
		}
	}
}
