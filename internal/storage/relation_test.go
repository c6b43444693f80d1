package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("edge", 2)
	if !r.Insert([]Value{1, 2}) {
		t.Fatal("first insert reported duplicate")
	}
	if r.Insert([]Value{1, 2}) {
		t.Fatal("duplicate insert reported new")
	}
	if !r.Insert([]Value{2, 1}) {
		t.Fatal("reversed tuple should be distinct")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Contains([]Value{1, 2}) || r.Contains([]Value{9, 9}) {
		t.Fatal("Contains disagrees with inserts")
	}
}

func TestRelationNegativeValuesDistinct(t *testing.T) {
	// Symbol ids are negative; packing must keep them distinct from
	// positive values with the same magnitude.
	r := NewRelation("r", 1)
	r.Insert([]Value{-1})
	if r.Contains([]Value{1}) {
		t.Fatal("-1 and 1 collided in the dedup key")
	}
	r.Insert([]Value{1})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRelationRowAndEachOrder(t *testing.T) {
	r := NewRelation("r", 3)
	want := [][]Value{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for _, tu := range want {
		r.Insert(tu)
	}
	for i, w := range want {
		if got := r.Row(int32(i)); !reflect.DeepEqual([]Value(got), w) {
			t.Fatalf("Row(%d) = %v, want %v", i, got, w)
		}
	}
	var seen [][]Value
	r.Each(func(row []Value) bool {
		cp := append([]Value(nil), row...)
		seen = append(seen, cp)
		return true
	})
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("Each order = %v, want %v", seen, want)
	}
}

func TestRelationEachEarlyStop(t *testing.T) {
	r := NewRelation("r", 1)
	for i := Value(0); i < 10; i++ {
		r.Insert([]Value{i})
	}
	n := 0
	r.Each(func(row []Value) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d rows, want 3", n)
	}
}

func TestRelationIndexIncrementalVsBackfill(t *testing.T) {
	// An index built before inserts (incremental) must agree with one built
	// after (backfill).
	inc := NewRelation("inc", 2)
	inc.BuildIndex(0)
	back := NewRelation("back", 2)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tu := []Value{Value(rng.Intn(20)), Value(rng.Intn(50))}
		inc.Insert(tu)
		back.Insert(tu)
	}
	back.BuildIndex(0)

	for k := Value(0); k < 20; k++ {
		a, okA := probeRows(inc, 0, k)
		b, okB := probeRows(back, 0, k)
		if !okA || !okB {
			t.Fatalf("probe not ok: %v %v", okA, okB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("key %d: incremental %v != backfill %v", k, a, b)
		}
	}
}

func TestRelationProbeMatchesScan(t *testing.T) {
	r := NewRelation("r", 2)
	r.BuildIndex(1)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		r.Insert([]Value{Value(rng.Intn(100)), Value(rng.Intn(10))})
	}
	for k := Value(0); k < 10; k++ {
		rows, ok := probeRows(r, 1, k)
		if !ok {
			t.Fatal("index missing")
		}
		var scan []int32
		for i := int32(0); i < int32(r.Len()); i++ {
			if r.Row(i)[1] == k {
				scan = append(scan, i)
			}
		}
		if !reflect.DeepEqual(rows, scan) {
			t.Fatalf("key %d: probe %v != scan %v", k, rows, scan)
		}
	}
}

func TestRelationProbeWithoutIndex(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert([]Value{1, 2})
	if _, ok := probeRows(r, 0, 1); ok {
		t.Fatal("Probe reported ok without an index")
	}
	if r.indexOn([]int{0}) != nil {
		t.Fatal("an index without BuildIndex")
	}
}

func TestRelationClearKeepsIndexRegistration(t *testing.T) {
	r := NewRelation("r", 2)
	r.BuildIndex(0)
	r.Insert([]Value{1, 2})
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len after Clear = %d", r.Len())
	}
	if r.indexOn([]int{0}) == nil {
		t.Fatal("Clear dropped index registration")
	}
	r.Insert([]Value{3, 4})
	rows, ok := probeRows(r, 0, 3)
	if !ok || len(rows) != 1 {
		t.Fatalf("index not maintained after Clear: %v %v", rows, ok)
	}
	if r.Contains([]Value{1, 2}) {
		t.Fatal("Clear left stale tuple")
	}
}

func TestRelationInsertAllCountsNew(t *testing.T) {
	a := NewRelation("a", 1)
	b := NewRelation("b", 1)
	a.Insert([]Value{1})
	a.Insert([]Value{2})
	b.Insert([]Value{2})
	b.Insert([]Value{3})
	if n := a.InsertAll(b); n != 1 {
		t.Fatalf("InsertAll added %d, want 1 (only 3 is new)", n)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}

func TestRelationIndexedColumns(t *testing.T) {
	r := NewRelation("r", 3)
	r.BuildIndex(2)
	r.BuildIndex(0)
	if got := r.IndexedColumns(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("IndexedColumns = %v", got)
	}
}

func TestRelationArityPanics(t *testing.T) {
	r := NewRelation("r", 2)
	for _, bad := range [][]Value{{1}, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Insert(%v) into arity-2 relation should panic", bad)
				}
			}()
			r.Insert(bad)
		}()
	}
}

// Property: a Relation behaves exactly like a set of tuples.
func TestRelationSetSemanticsProperty(t *testing.T) {
	f := func(tuples [][2]int16) bool {
		r := NewRelation("p", 2)
		model := make(map[[2]Value]bool)
		for _, tp := range tuples {
			tu := []Value{Value(tp[0]), Value(tp[1])}
			wantNew := !model[[2]Value{tu[0], tu[1]}]
			gotNew := r.Insert(tu)
			if gotNew != wantNew {
				return false
			}
			model[[2]Value{tu[0], tu[1]}] = true
		}
		if r.Len() != len(model) {
			return false
		}
		ok := true
		r.Each(func(row []Value) bool {
			if !model[[2]Value{row[0], row[1]}] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: indexes never change which tuples a relation contains.
func TestRelationIndexTransparencyProperty(t *testing.T) {
	f := func(tuples [][2]int8) bool {
		plain := NewRelation("plain", 2)
		indexed := NewRelation("indexed", 2)
		indexed.BuildIndex(0)
		indexed.BuildIndex(1)
		for _, tp := range tuples {
			tu := []Value{Value(tp[0]), Value(tp[1])}
			plain.Insert(tu)
			indexed.Insert(tu)
		}
		return relEqual(plain, indexed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// relEqual reports set equality of two relations (test helper).
func relEqual(a, b *Relation) bool {
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	eq := true
	a.Each(func(row []Value) bool {
		if !b.Contains(row) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

func sortTuples(ts [][]Value) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

func TestRelationSnapshotCopies(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert([]Value{1, 2})
	snap := r.Snapshot()
	snap[0][0] = 99
	if !r.Contains([]Value{1, 2}) {
		t.Fatal("Snapshot mutation leaked into relation")
	}
}
