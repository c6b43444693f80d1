package storage

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
)

// quietPools empties the scratch pools and holds the collector off until
// the returned func runs, so a take hands back what the test itself gave.
func quietPools() (restore func()) {
	runtime.GC()
	runtime.GC() // the first leaves the pools' slabs anchored for one more
	gc := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(gc) }
}

// pooled reports whether s itself sits in p's class for its capacity: it
// takes a few slabs from that class, looks for s and gives them all back.
func pooled[T any](p *slabPool[T], s []T) bool {
	if cap(s) == 0 {
		return false
	}
	want := &s[:1][0]
	var taken [][]T
	found := false
	for range 8 {
		got := p.take(1 << (bits.Len(uint(cap(s))) - 1))
		found = found || &got[:1][0] == want
		taken = append(taken, got)
	}
	for _, got := range taken {
		p.give(got)
	}
	return found
}

// checkPooledAllocs fails t unless f, once warm, allocates nothing with the
// collector, which would empty the scratch pool, held off.
func checkPooledAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(10, f); a != 0 {
		t.Errorf("%s allocates %.0f times, want 0", what, a)
	}
}

// TestSlabPoolAnyGoroutine: the slab one goroutine gives is the slab a take
// on another gets, every time, whichever Ps they run on. A sync.Pool per
// class missed whenever they ran on different Ps.
func TestSlabPoolAnyGoroutine(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var p slabPool[Value]
	s := make([]Value, 0, 1024)
	for i := 0; i < 200; i++ {
		done := make(chan []Value)
		go func() { p.give(s); done <- nil }()
		<-done
		go func() { done <- p.take(1000) }()
		if got := <-done; &got[:1][0] != &s[:1][0] {
			t.Fatalf("round %d: a take on another goroutine missed the slab just given", i)
		}
	}
}

// TestSlabPoolLifetime: a slab lives as an item of a sync.Pool does — it
// survives one collection and is freed by the second, unless a take or give
// came in between — except while the pools are held (HoldScratch).
func TestSlabPoolLifetime(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops the anchoring Put at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p slabPool[Value]
	s := make([]Value, 0, 4096)
	p.give(s)
	runtime.GC()
	if got := p.take(4096); &got[:1][0] != &s[:1][0] {
		t.Fatal("a slab did not survive one collection")
	}
	p.give(s)
	runtime.GC()
	p.give(p.take(4096)) // re-anchors: the slab lives one collection more
	runtime.GC()
	if got := p.take(4096); &got[:1][0] != &s[:1][0] {
		t.Fatal("a slab taken and given between two collections did not survive them")
	}
	p.give(s)
	runtime.GC()
	runtime.GC()
	if got := p.take(4096); &got[:1][0] == &s[:1][0] {
		t.Fatal("a slab survived two collections without a take or give")
	}

	// While the pools are held no collection frees a slab; the release
	// gives them sync.Pool's lifetime again, counted from the release.
	release := HoldScratch()
	valueSlabs.give(s)
	runtime.GC()
	runtime.GC()
	runtime.GC()
	release()
	runtime.GC()
	if got := valueSlabs.take(4096); &got[:1][0] != &s[:1][0] {
		t.Fatal("a slab held through three collections did not survive one more after the release")
	}
	release = HoldScratch()
	valueSlabs.give(s)
	release()
	runtime.GC()
	runtime.GC()
	if got := valueSlabs.take(4096); &got[:1][0] == &s[:1][0] {
		t.Fatal("a slab survived two collections after the release")
	}
}

// TestSlabPoolWarmAllocatesNothing: once a class holds a slab and the
// stacks are anchored, a take and a give allocate nothing.
func TestSlabPoolWarmAllocatesNothing(t *testing.T) {
	var p slabPool[Value]
	p.give(p.take(100))
	checkPooledAllocs(t, "a warm take and give", func() { p.give(p.take(100)) })
}

// TestSlabPoolClasses: a take rounds up to its power-of-two class, and a
// give files a slab under the floor of its capacity, so a take never
// receives a slab smaller than it asked for.
func TestSlabPoolClasses(t *testing.T) {
	defer quietPools()()
	var p slabPool[Value]
	for _, c := range []struct{ n, cap int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {1025, 2048}} {
		if s := p.take(c.n); len(s) != 0 || cap(s) != c.cap {
			t.Errorf("take(%d) = len %d cap %d, want len 0 cap %d", c.n, len(s), cap(s), c.cap)
		}
	}
	odd := make([]Value, 3, 1500) // floor class 1024
	p.give(odd)
	if s := p.take(1025); cap(s) < 1025 {
		t.Fatalf("take(1025) returned a slab of capacity %d", cap(s))
	}
	s := p.take(1000)
	if cap(s) < 1000 || len(s) != 0 {
		t.Fatalf("take(1000) = len %d cap %d", len(s), cap(s))
	}
	if &s[:1][0] != &odd[:1][0] {
		t.Fatalf("take(1000) did not receive the slab of capacity 1500 filed under class 1024")
	}
}

// TestSlabPoolZeroed: what a give files keeps its last holder's contents, and
// takeZeroed — the index slot tables and the row tables' slots — hands it out
// cleared.
func TestSlabPoolZeroed(t *testing.T) {
	defer quietPools()()
	var p slabPool[chainSlot]
	s := p.take(64)[:64]
	for i := range s {
		s[i] = chainSlot{7, 7}
	}
	p.give(s)
	for i, v := range p.takeZeroed(64) {
		if v != (chainSlot{}) {
			t.Fatalf("takeZeroed: slot %d holds %v", i, v)
		}
	}
	// Through the structures: a delta's row table and index, sealed and
	// ensured over one fill, given back by Clear, then rebuilt over another.
	d := NewRelation("dδ", 2)
	d.lazy = true
	d.BuildIndex(0)
	for fill := 0; fill < 3; fill++ {
		for i := 0; i < 100; i++ {
			d.AppendDistinct([]Value{Value(i + fill*1000), Value(i % 5)})
		}
		d.Seal()
		d.EnsureIndexes()
		for i := 0; i < 100; i++ {
			if !d.Contains([]Value{Value(i + fill*1000), Value(i % 5)}) {
				t.Fatalf("fill %d: row %d missing", fill, i)
			}
			if d.Contains([]Value{Value(i + (fill+1)*1000), Value(i % 5)}) {
				t.Fatalf("fill %d: the next fill's row %d present", fill, i)
			}
			if rows, _ := probeRows(d, 0, Value(i+fill*1000)); len(rows) != 1 || rows[0] != int32(i) {
				t.Fatalf("fill %d: probe of row %d reads %v", fill, i, rows)
			}
		}
		d.Clear()
	}
}

// TestDeltaRowSlotsComeZeroed: a delta's row table takes its slots from the
// int32 pool, where a give leaves whatever its last holder wrote (under
// scratchpoison, the poison: every slot nonzero, which reads as occupied),
// and a seal must still start from an empty table.
func TestDeltaRowSlotsComeZeroed(t *testing.T) {
	defer quietPools()()
	d := NewRelation("dδ", 2)
	d.lazy = true
	for i := 0; i < 100; i++ { // 100 rows seal into 256 slots
		d.AppendDistinct([]Value{Value(i), Value(-i)})
	}
	dirty := valueSlabs.take(256)[:256]
	for i := range dirty {
		dirty[i] = math.MinInt32 | Value(i)
	}
	valueSlabs.give(dirty)
	d.Seal()
	if len(d.tab.slots) != 256 || &d.tab.slots[0] != &dirty[0] {
		t.Fatalf("the seal did not take the pooled slab of 256 slots (got %d slots)", len(d.tab.slots))
	}
	occupied := 0
	for _, s := range d.tab.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != 100 {
		t.Fatalf("%d occupied slots for 100 sealed rows", occupied)
	}
	for i := 0; i < 100; i++ {
		if !d.Contains([]Value{Value(i), Value(-i)}) || d.Contains([]Value{Value(-i - 1), Value(i)}) {
			t.Fatalf("membership of row %d wrong over a reused slab", i)
		}
	}
	d.Clear()
}

// TestDerivedOwnsItsMemory: Derived takes no slab from the scratch pool —
// its links are exactly the rows a batch links — and gives none to it.
func TestDerivedOwnsItsMemory(t *testing.T) {
	defer quietPools()()
	c := NewCatalog()
	p := c.Pred(c.Declare("p", 2))
	p.BuildIndexes([]int{0})
	for i := 0; i < 1000; i++ {
		p.Emit([]Value{Value(i % 50), Value(i)})
	}
	p.SwapClear()
	d := p.Derived
	if links := cap(d.indexes[0].next); links != 1000 {
		t.Fatalf("Derived linked 1000 published rows in %d links, want exactly 1000", links)
	}
	arena, next, slots := d.arena, d.indexes[0].next, d.tab.slots
	d.Clear()
	if pooled(&valueSlabs, arena) || pooled(&valueSlabs, next) || pooled(&valueSlabs, slots) {
		t.Fatal("Derived's Clear gave its memory to the scratch pool")
	}
	if cap(d.arena) != cap(arena) {
		t.Fatalf("Derived's Clear moved its arena from %d to %d values", cap(arena), cap(d.arena))
	}
	// The deltas, which the rotation emptied by Clear, did give theirs.
	p.DeltaNew.Clear()
	for i := 0; i < 1000; i++ {
		p.Seed([]Value{Value(i % 50), Value(i)})
	}
	p.SwapDeltas()
	p.DeltaKnown.EnsureIndexes()
	deltaArena, deltaNext := p.DeltaKnown.arena, p.DeltaKnown.indexes[0].next
	p.SwapDeltas() // nothing new: both deltas cleared
	if !pooled(&valueSlabs, deltaArena) || !pooled(&valueSlabs, deltaNext) {
		t.Fatal("a converged delta kept its arena or links out of the scratch pool")
	}
}

// TestPinnedArenaNeverGiven: an arena an epoch view pins stays with the view
// — neither a delta's Clear nor its growth gives it to the scratch pool.
func TestPinnedArenaNeverGiven(t *testing.T) {
	defer quietPools()()
	d := NewRelation("dδ", 2)
	d.lazy = true
	for i := 0; i < 100; i++ {
		d.AppendDistinct([]Value{Value(i), Value(-i)})
	}
	d.PinRows()
	grown := d.arena
	for i := 100; cap(d.arena) == cap(grown); i++ {
		d.AppendDistinct([]Value{Value(i), Value(-i)})
	}
	if pooled(&valueSlabs, grown) {
		t.Fatal("a delta's growth gave its pinned arena to the scratch pool")
	}
	view := d.PinRows()
	pinned := d.arena
	d.Clear()
	if pooled(&valueSlabs, pinned) {
		t.Fatal("a delta's Clear gave its pinned arena to the scratch pool")
	}
	for i := 0; i < 1000; i++ {
		d.AppendDistinct([]Value{Value(-i), Value(i)})
	}
	if n := view.Len(); n == 0 {
		t.Fatal("the pinned view lost its rows")
	}
	for i := 0; i < view.Len(); i++ {
		if r := view.Row(i); r[0] != Value(i) || r[1] != Value(-i) {
			t.Fatalf("pinned row %d reads %v after the delta refilled", i, r)
		}
	}
}
