package storage

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"weak"
)

// Scratch memory. A delta relation (δ, δ′) holds
// its memory only until its next Clear: semi-naive evaluation empties and
// refills the deltas every iteration, and retraction borrows them for one
// Apply. So every slab a delta holds of its own — its arena, its row table's
// slots, its index links and slot tables — comes from the size-classed pools
// below and goes back to them when the relation gives memory back, as do the
// chunks and repeat filters of the pool workers' lists (TakeScratch). A flat δ that borrows Derived's rows
// (PredicateDB.SwapClear) takes no arena at all. Derived is state and owns
// exact-sized memory: it takes nothing from the pools and gives nothing to
// them.
//
// Lifetime. While an engine call is in flight — a Run, an Apply, a session
// query, each of which holds the pools (HoldScratch) — the free slabs stay:
// a first Run that grows Derived by tens of MB sets off collections back to
// back, which would otherwise free the slabs its own iterations gave back and
// make it take them anew. Otherwise a slab lives as long as an item of a
// sync.Pool: it survives one garbage collection and is freed by the second
// unless a take or give came in between, so a warm Run or Apply reuses the
// slabs of the previous one and an idle Program pins none of this memory.
// The free slabs sit in one stack
// per class that a take on any goroutine and any P reaches. A sync.Pool per
// class did not: its Get steals only from other Ps' shared queues, never
// from their private slot, and most classes hold a single slab, so the
// scheduler alone made warm takes miss — a warm TC Run allocated about
// twice as much at two Ps as at one, and four times as much at four.
//
// The stacks object is reachable strongly only from an anchor sync.Pool,
// which gives it sync.Pool's lifetime, and weakly from its slabPool. The
// first take or give after a collection notices that collection — a weak
// sentinel made at the last anchoring has died — and puts the stacks back
// into the anchor, so they live for one more. While the pools are held, the
// slabPool holds its stacks strongly too; the last release anchors them
// afresh, so they live one collection past it and are freed by the second.

// slabPool recycles slabs of T in power-of-two classes: class c holds slabs
// of capacity at least 1<<c, filed by the floor of their capacity's log, so
// a take never receives a slab smaller than it asked for. Safe for
// concurrent use.
type slabPool[T any] struct {
	mu       sync.Mutex
	stacks   weak.Pointer[slabStacks[T]]
	held     *slabStacks[T]           // the stacks, while the pools are held (HoldScratch)
	sentinel weak.Pointer[gcSentinel] // dies at the first collection after the last anchoring
	anchor   sync.Pool                // of *slabStacks[T]; never read, only holds
	poison   T                        // what a give fills a slab with under scratchpoison
}

// slabStacks holds a pool's free slabs, one LIFO stack per class.
type slabStacks[T any] struct{ classes [40][][]T }

// gcSentinel is what the weak sentinel points at. It holds a pointer so the
// allocator never packs it into a tiny block beside a live object, which
// would keep it alive through a collection.
type gcSentinel struct{ _ *gcSentinel }

var (
	valueSlabs = slabPool[Value]{poison: math.MinInt32} // arenas, row-table slots, index links, list chunks
	slotSlabs  = slabPool[chainSlot]{poison: chainSlot{math.MinInt32, math.MinInt32}}
)

// scratchHolds counts the engine calls in flight that hold the pools. Its
// mutex orders the first hold and the last release; class reads the count.
var scratchHolds struct {
	mu sync.Mutex
	n  atomic.Int32
}

// HoldScratch keeps every free slab of the scratch pools alive, whatever the
// collector does, until the returned release runs: the lifetime of an
// engine call (core's Run, Apply and session queries). Holds nest and may
// overlap; when the last is released the pools return to sync.Pool
// lifetime.
func HoldScratch() (release func()) {
	h := &scratchHolds
	h.mu.Lock()
	if h.n.Add(1) == 1 {
		holdPools(true)
	}
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		if h.n.Add(-1) == 0 {
			holdPools(false)
		}
		h.mu.Unlock()
	}
}

func holdPools(on bool) {
	valueSlabs.hold(on)
	slotSlabs.hold(on)
}

// hold starts (on) or ends holding p's stacks strongly. Ending anchors them,
// so they live one collection past the release.
func (p *slabPool[T]) hold(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if on {
		p.held = p.stacks.Value()
		return
	}
	if p.held != nil {
		p.anchor.Put(p.held)
		p.sentinel = weak.Make(new(gcSentinel))
		p.held = nil
	}
}

// class returns the stack of class c, anchoring the stacks for one more
// collection when one has run since the last anchoring, or making them anew
// when two have freed them; while the pools are held, p holds them too. The
// caller holds mu.
func (p *slabPool[T]) class(c int) *[][]T {
	s := p.stacks.Value()
	if s == nil || p.sentinel.Value() == nil {
		if s == nil {
			s = new(slabStacks[T])
			p.stacks = weak.Make(s)
		}
		p.anchor.Put(s)
		p.sentinel = weak.Make(new(gcSentinel))
	}
	if scratchHolds.n.Load() > 0 {
		p.held = s
	}
	return &s.classes[c]
}

// take returns an empty slab with capacity at least n, rounded up to its
// class, its contents whatever its last holder left.
func (p *slabPool[T]) take(n int) []T {
	c := bits.Len(uint(max(n, 1) - 1))
	p.mu.Lock()
	st := p.class(c)
	if k := len(*st) - 1; k >= 0 {
		s := (*st)[k]
		(*st)[k] = nil
		*st = (*st)[:k]
		p.mu.Unlock()
		return s[:0]
	}
	p.mu.Unlock()
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
	p.mu.Lock()
	st := p.class(bits.Len(uint(cap(s))) - 1)
	*st = append(*st, s)
	p.mu.Unlock()
}

// TakeScratch returns an empty Value slab with capacity at least n from the
// scratch pool, its contents unspecified: the chunks of a pool worker's list.
func TakeScratch(n int) []Value { return valueSlabs.take(n) }

// GiveScratch returns a slab taken with TakeScratch to the pool. The caller
// keeps no view of it.
func GiveScratch(s []Value) { valueSlabs.give(s) }
