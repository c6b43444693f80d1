package storage

import (
	"testing"
	"testing/quick"
)

func TestTruncateToBasic(t *testing.T) {
	r := NewRelation("r", 2)
	r.BuildIndex(0)
	for i := Value(0); i < 10; i++ {
		r.Insert([]Value{i, i * 2})
	}
	r.TruncateTo(4)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Contains([]Value{5, 10}) {
		t.Fatal("truncated tuple still present")
	}
	if !r.Contains([]Value{3, 6}) {
		t.Fatal("surviving tuple lost")
	}
	// Index consistent after truncate.
	rows, ok := probeRows(r, 0, 3)
	if !ok || len(rows) != 1 || rows[0] != 3 {
		t.Fatalf("probe after truncate = %v, %v", rows, ok)
	}
	if rows, _ := probeRows(r, 0, 7); len(rows) != 0 {
		t.Fatal("index kept truncated rows")
	}
	// Reinsert a truncated tuple: must be new again.
	if !r.Insert([]Value{5, 10}) {
		t.Fatal("reinsert after truncate reported duplicate")
	}
}

func TestTruncateToNoops(t *testing.T) {
	r := NewRelation("r", 1)
	r.Insert([]Value{1})
	r.TruncateTo(5) // beyond length
	r.TruncateTo(1) // exact length
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.TruncateTo(-1)
	if r.Len() != 1 {
		t.Fatal("negative truncate mutated relation")
	}
	r.TruncateTo(0)
	if r.Len() != 0 {
		t.Fatal("truncate to zero failed")
	}
}

// Property: TruncateTo(n) after inserting a+b distinct tuples leaves exactly
// the first n, with dedup and index state identical to a fresh relation
// holding those n.
func TestTruncateEquivalentToFreshProperty(t *testing.T) {
	f := func(raw [][2]int8, keepRaw uint8) bool {
		// Deduplicate input preserving order.
		seen := map[[2]int8]bool{}
		var tuples [][2]int8
		for _, tp := range raw {
			if !seen[tp] {
				seen[tp] = true
				tuples = append(tuples, tp)
			}
		}
		if len(tuples) == 0 {
			return true
		}
		keep := int(keepRaw) % (len(tuples) + 1)

		full := NewRelation("full", 2)
		full.BuildIndex(1)
		for _, tp := range tuples {
			full.Insert([]Value{Value(tp[0]), Value(tp[1])})
		}
		full.TruncateTo(keep)

		fresh := NewRelation("fresh", 2)
		fresh.BuildIndex(1)
		for _, tp := range tuples[:keep] {
			fresh.Insert([]Value{Value(tp[0]), Value(tp[1])})
		}
		if !relEqual(full, fresh) {
			return false
		}
		for v := -128; v < 128; v++ {
			a, _ := probeRows(full, 1, Value(v))
			b, _ := probeRows(fresh, 1, Value(v))
			if len(a) != len(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
