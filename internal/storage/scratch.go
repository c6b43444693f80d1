package storage

import (
	"math"
	"math/bits"
	"sync"
)

// Scratch memory. A delta relation (δ, δ′ and their physical buckets) holds
// its memory only until its next Clear: semi-naive evaluation empties and
// refills the deltas every iteration, and retraction borrows them for one
// Apply. So every slab a delta holds — its arena, its row table's tags and
// row ids, its index links and slot tables — comes from the size-classed
// pools below and goes back to them when the relation gives memory back, as
// do the chunks and repeat filters of the pool workers' lists
// (TakeScratch). A warm Run or Apply reuses the slabs of the previous one; a
// garbage collection may empty the pools, so an idle Program pins none of
// this memory. Derived is state and owns exact-sized memory: it takes
// nothing from the pools and gives nothing to them.

// slabPool recycles slabs of T in power-of-two classes: class c holds slabs
// of capacity at least 1<<c, filed by the floor of their capacity's log, so
// a take never receives a slab smaller than it asked for. Safe for
// concurrent use.
type slabPool[T any] struct {
	classes [40]sync.Pool // of *[]T
	headers sync.Pool     // spare *[]T, so a give allocates nothing once warm
	poison  T             // what a give fills a slab with under scratchpoison
}

var (
	valueSlabs = slabPool[Value]{poison: math.MinInt32} // arenas, row ids, index links, list chunks
	tagSlabs   = slabPool[uint8]{poison: 0xff}
	slotSlabs  = slabPool[chainSlot]{poison: chainSlot{math.MinInt32, math.MinInt32}}
)

// take returns an empty slab with capacity at least n, rounded up to its
// class, its contents whatever its last holder left.
func (p *slabPool[T]) take(n int) []T {
	c := bits.Len(uint(max(n, 1) - 1))
	if h, _ := p.classes[c].Get().(*[]T); h != nil {
		s := *h
		*h = nil
		p.headers.Put(h)
		return s[:0]
	}
	return make([]T, 0, 1<<c)
}

// takeZeroed returns a slab of length n, zeroed.
func (p *slabPool[T]) takeZeroed(n int) []T {
	s := p.take(n)[:n]
	clear(s)
	return s
}

// give files s under the floor class of its capacity. The caller keeps no
// view of it: its next holder may write it at once.
func (p *slabPool[T]) give(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	if poisonScratch {
		for i := range s {
			s[i] = p.poison
		}
	}
	h, _ := p.headers.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s
	p.classes[bits.Len(uint(cap(s)))-1].Put(h)
}

// TakeScratch returns an empty Value slab with capacity at least n from the
// scratch pool, its contents unspecified: the chunks of a pool worker's list.
func TakeScratch(n int) []Value { return valueSlabs.take(n) }

// GiveScratch returns a slab taken with TakeScratch to the pool. The caller
// keeps no view of it.
func GiveScratch(s []Value) { valueSlabs.give(s) }
