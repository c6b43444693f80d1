package storage

import (
	"math/bits"
	"slices"
)

// chainIndex is the one join-index structure of a Relation: a hash index over
// a registered column set — one column or several, the same code — that keeps
// the rows of each distinct key as a chain in insertion order.
//
// slots is an open-addressing table (linear probing, at most 5/8 full,
// doubling) with one entry per distinct key: the two ends of the key's chain
// and no key — as in the row table, a slot's key is read from the arena, here
// the indexed columns of the chain's first row. next is parallel to the arena:
// next[row] names the next row with row's key. Entering a row is two stores
// and allocates nothing per key, a probe hands out the chain's first row and
// next (Chain), and the distinct keys are the table's fill. Rows are named by
// links, row id + 1, so that zeroed memory means "none". Probing only loads,
// so any number of goroutines may probe a relation no one is mutating: the
// parallel workers on the frozen Derived and DeltaKnown. Derived links every
// row as it is inserted; a delta none as they arrive, until EnsureIndex
// enters the rows it lacks, in order, right before a plan probes it.
//
// Capacity rule: Derived keeps its memory, exact-sized — reserve grows next
// to the rows it links, ClearRetain, TruncateTo and the compactions refill in
// place under the row table's hysteresis — while a delta's slots and links
// come from the scratch pool (scratch.go) and go back to it on Clear.
type chainIndex struct {
	cols  []int       // indexed columns, ascending
	ident []int       // 0..len(cols)-1: where a probe's key values sit
	slots []chainSlot // one per distinct key
	next  []int32     // next[row] = link to the next row of row's chain
	used  int         // occupied slots == distinct keys
}

// chainSlot holds the two ends of one key's chain as links.
type chainSlot struct{ first, last int32 }

// noSlots backs every index without slots of its own, so find needs no nil
// check; a one-slot table is over the load limit before its first add.
var noSlots [1]chainSlot

func newChainIndex(cols []int) chainIndex {
	ident := make([]int, len(cols))
	for i := range ident {
		ident[i] = i
	}
	return chainIndex{cols: cols, ident: ident, slots: noSlots[:]}
}

// Chain is a probe result: the rows sharing one key, in insertion order, valid
// until the relation's next mutation like the rows it names.
//
//	for row := c.First(); row >= 0; row = c.Next(row) { ... rel.Row(row) ... }
type Chain struct {
	head int32
	next []int32
}

// First returns the chain's first row id, or -1 when no row has the key.
func (c Chain) First() int32 { return c.head - 1 }

// Next returns the row id after row in the chain, or -1 at its end.
func (c Chain) Next(row int32) int32 { return c.next[row] - 1 }

// keyHash hashes the key src[at[0]], src[at[1]], ..., one multiply a column.
func keyHash(src []Value, at []int) uint64 {
	h := uint64(uint32(src[at[0]])) * hashMul
	for _, c := range at[1:] {
		h = (h ^ uint64(uint32(src[c]))) * hashMul
	}
	return h
}

// find returns the slot of the key src[at[...]]: the one holding its chain, or
// the empty one that ends its probe sequence. The key is a row's own (src the
// row, at the indexed columns) or a probe's (src the values, at ident). A
// slot's home is the hash's high bits, which depend on every bit of the key.
func (ix *chainIndex) find(arena []Value, arity int, src []Value, at []int) int {
	mask := len(ix.slots) - 1
	shift := bits.LeadingZeros64(uint64(mask)) & 63
	for i := int(keyHash(src, at)>>shift) & mask; ; i = (i + 1) & mask {
		first := ix.slots[i].first
		if first == 0 {
			return i
		}
		row, k := arena[int(first-1)*arity:], 0
		for k < len(at) && row[ix.cols[k]] == src[at[k]] {
			k++
		}
		if k == len(at) {
			return i
		}
	}
}

// probe1 is find for a probe of a single-column index — the join probe of
// nearly every rule — in a third of the instructions: one value, no indirection.
func (ix *chainIndex) probe1(arena []Value, arity int, v Value) Chain {
	mask, col := len(ix.slots)-1, ix.cols[0]
	shift := bits.LeadingZeros64(uint64(mask)) & 63
	for i := int(uint64(uint32(v))*hashMul>>shift) & mask; ; i = (i + 1) & mask {
		first := ix.slots[i].first
		if first == 0 || arena[int(first-1)*arity+col] == v {
			return Chain{head: first, next: ix.next}
		}
	}
}

// add enters row, the arena's newest, at the tail of its key's chain; scratch
// marks a delta's index (the capacity rule).
func (ix *chainIndex) add(arena []Value, arity int, row int32, scratch bool) {
	t := arena[int(row)*arity:][:arity]
	if n := len(ix.next); n == cap(ix.next) {
		// By four, but never past the arena, which already holds the row.
		ix.next = slices.Grow(ix.next, min(max(3*n, 16), cap(arena)/arity-n))
	}
	ix.next = append(ix.next, 0)
	s := &ix.slots[ix.find(arena, arity, t, ix.cols)]
	if s.first == 0 {
		if (ix.used+1)*8 > len(ix.slots)*5 {
			ix.rehash(arena, arity, max(2*len(ix.slots), minTableSize), scratch)
			s = &ix.slots[ix.find(arena, arity, t, ix.cols)]
		}
		s.first = row + 1
		ix.used++
	} else {
		ix.next[s.last-1] = row + 1
	}
	s.last = row + 1
}

// reserve gives next room for rows links when it has less: exactly on
// Derived, a batch of staged rows or a bulk load, sized to the rows it links
// and not against the arena capacity left behind, which would pin that slack
// for as long as the relation lives; a class-sized scratch slab on a delta.
func (ix *chainIndex) reserve(rows int, scratch bool) {
	if cap(ix.next) >= rows {
		return
	}
	if !scratch {
		ix.next = append(make([]int32, 0, rows), ix.next...)
		return
	}
	next := append(valueSlabs.take(rows), ix.next...)
	valueSlabs.give(ix.next)
	ix.next = next
}

// rehash moves every chain to a fresh table of size slots; next is untouched.
func (ix *chainIndex) rehash(arena []Value, arity int, size int, scratch bool) {
	old := ix.slots
	ix.slots = newSlots(size, scratch)
	for _, s := range old {
		if s.first != 0 {
			ix.slots[ix.find(arena, arity, arena[int(s.first-1)*arity:], ix.cols)] = s
		}
	}
	giveSlots(old, scratch)
}

// newSlots returns an empty slot table of size slots.
func newSlots(size int, scratch bool) []chainSlot {
	if scratch {
		return slotSlabs.takeZeroed(size)
	}
	return make([]chainSlot, size)
}

// giveSlots gives a delta's slot table to the scratch pool; noSlots stays.
func giveSlots(s []chainSlot, scratch bool) {
	if scratch && len(s) >= minTableSize {
		slotSlabs.give(s)
	}
}

// reset empties the index under the capacity rule above: with retain it keeps
// next and the slot table, halving a table whose last fill used under an
// eighth of it (the row table's hysteresis); without, both are given back.
func (ix *chainIndex) reset(retain, scratch bool) {
	switch {
	case retain && ix.used*8 >= len(ix.slots):
		clear(ix.slots)
	case retain && len(ix.slots) > minTableSize:
		old := ix.slots
		ix.slots = newSlots(len(old)/2, scratch)
		giveSlots(old, scratch)
	default:
		giveSlots(ix.slots, scratch)
		if scratch {
			valueSlabs.give(ix.next)
		}
		ix.slots, ix.next = noSlots[:], nil
	}
	ix.used, ix.next = 0, ix.next[:0]
}
