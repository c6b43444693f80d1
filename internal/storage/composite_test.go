package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompositeIndexBasic(t *testing.T) {
	r := NewRelation("r", 3)
	r.BuildCompositeIndex([]int{0, 2})
	r.Insert([]Value{1, 9, 2})
	r.Insert([]Value{1, 8, 2})
	r.Insert([]Value{1, 9, 3})
	rows, ok := probeCompositeRows(r, []int{0, 2}, []Value{1, 2})
	if !ok || len(rows) != 2 {
		t.Fatalf("probe = %v, %v", rows, ok)
	}
	rows, ok = probeCompositeRows(r, []int{0, 2}, []Value{1, 3})
	if !ok || len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("probe = %v, %v", rows, ok)
	}
	if _, ok := probeCompositeRows(r, []int{0, 1}, []Value{1, 9}); ok {
		t.Fatal("unregistered column set answered a probe")
	}
}

func TestCompositeIndexColumnOrderInsensitive(t *testing.T) {
	r := NewRelation("r", 3)
	r.BuildCompositeIndex([]int{2, 0})
	if r.indexOn([]int{0, 2}) == nil {
		t.Fatal("registration should be order-insensitive")
	}
	r.Insert([]Value{5, 0, 7})
	// Probe columns must be ascending; vals parallel.
	rows, ok := probeCompositeRows(r, []int{0, 2}, []Value{5, 7})
	if !ok || len(rows) != 1 {
		t.Fatalf("probe = %v, %v", rows, ok)
	}
}

func TestCompositeIndexBackfillVsIncremental(t *testing.T) {
	inc := NewRelation("inc", 2)
	inc.BuildCompositeIndex([]int{0, 1})
	back := NewRelation("back", 2)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		tu := []Value{Value(rng.Intn(10)), Value(rng.Intn(10))}
		inc.Insert(tu)
		back.Insert(tu)
	}
	back.BuildCompositeIndex([]int{0, 1})
	for a := Value(0); a < 10; a++ {
		for b := Value(0); b < 10; b++ {
			ra, _ := probeCompositeRows(inc, []int{0, 1}, []Value{a, b})
			rb, _ := probeCompositeRows(back, []int{0, 1}, []Value{a, b})
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("key (%d,%d): incremental %v != backfill %v", a, b, ra, rb)
			}
		}
	}
}

func TestCompositeIndexSurvivesClearAndTruncate(t *testing.T) {
	r := NewRelation("r", 2)
	r.BuildCompositeIndex([]int{0, 1})
	r.Insert([]Value{1, 2})
	r.Clear()
	r.Insert([]Value{3, 4})
	rows, ok := probeCompositeRows(r, []int{0, 1}, []Value{3, 4})
	if !ok || len(rows) != 1 {
		t.Fatalf("after Clear: %v %v", rows, ok)
	}
	r.Insert([]Value{5, 6})
	r.TruncateTo(1)
	if rows, _ := probeCompositeRows(r, []int{0, 1}, []Value{5, 6}); len(rows) != 0 {
		t.Fatal("TruncateTo left stale composite entries")
	}
	if rows, _ := probeCompositeRows(r, []int{0, 1}, []Value{3, 4}); len(rows) != 1 {
		t.Fatal("TruncateTo dropped surviving composite entries")
	}
}

func TestCompositeIndexPanics(t *testing.T) {
	r := NewRelation("r", 2)
	for _, bad := range [][]int{{0}, {0, 5}, {1, 1}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("BuildCompositeIndex(%v) should panic", bad)
				}
			}()
			r.BuildCompositeIndex(bad)
		}()
	}
}

func TestCompositeIndexesListing(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("r", 3))
	p.RegisterIndex(RoleDerived, []int{2, 0, 1})
	p.RegisterIndex(RoleDerived, []int{1, 2})
	p.RegisterIndex(RoleDerived, []int{0})
	got := p.CompositeIndexes(RoleDerived)
	want := [][]int{{1, 2}, {0, 1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompositeIndexes = %v", got)
	}
	if got := p.CompositeIndexes(RoleDelta); len(got) != 0 || p.Indexed(RoleDelta, []int{1, 2}) {
		t.Fatalf("the delta role carries %v, registered on Derived only", got)
	}
	if !p.Indexed(RoleDerived, []int{0, 1, 2}) || p.DeltaKnown.indexOn([]int{1, 2}) != nil {
		t.Fatal("the registration and the relations' indexes disagree")
	}
}

func TestDistinctCount(t *testing.T) {
	r := NewRelation("r", 2)
	if r.DistinctCount(0) != -1 {
		t.Fatal("unindexed column should report -1")
	}
	r.BuildIndex(0)
	for i := Value(0); i < 30; i++ {
		r.Insert([]Value{i % 5, i})
	}
	if got := r.DistinctCount(0); got != 5 {
		t.Fatalf("DistinctCount = %d, want 5", got)
	}
}

// Property: composite probe answers exactly the tuples a filter scan finds.
func TestCompositeProbeMatchesScanProperty(t *testing.T) {
	f := func(tuples [][2]int8, a, b int8) bool {
		r := NewRelation("p", 2)
		r.BuildCompositeIndex([]int{0, 1})
		for _, tp := range tuples {
			r.Insert([]Value{Value(tp[0]), Value(tp[1])})
		}
		rows, ok := probeCompositeRows(r, []int{0, 1}, []Value{Value(a), Value(b)})
		if !ok {
			return false
		}
		var scan []int32
		for i := int32(0); i < int32(r.Len()); i++ {
			row := r.Row(i)
			if row[0] == Value(a) && row[1] == Value(b) {
				scan = append(scan, i)
			}
		}
		return reflect.DeepEqual(rows, scan) || (len(rows) == 0 && len(scan) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
