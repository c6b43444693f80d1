package storage

import "math/bits"

// rowTable is the one duplicate-elimination and row-id structure of a
// Relation: an open-addressing hash table whose slots are one uint32 each —
// a 7-bit hash tag over a 25-bit row id (packSlot) — and hold no key. A
// slot's key is the row it names, read from the relation's arena, so the
// table serves any arity at 4 bytes a slot, wide tuples allocate no key on
// insert, a probe reads one array, and a counted relation's row-id map is
// this same table (find returns the row id).
//
// Collisions resolve by linear probing over the slots; the table holds
// exactly the rows of the arena (no tombstones — compactions rebuild it), is
// kept at most 5/8 full, and grows by doubling and re-entering the arena's
// rows in order. The arena a caller passes may run past the relation's
// length: a Derived mid-iteration keeps its staged rows there, under the row
// ids that follow, so a growth step re-enters them like any other. A row id
// has 25 bits: a relation past 2^25 rows panics (maxTableRows).
//
// Capacity rule: Derived's table is its own, emptied in place by reset
// (ClearRetain, TruncateTo, the compactions) and halved only when a fill used
// under an eighth of it, so the per-Run refill allocates nothing once warm;
// a delta's — a retraction frontier or candidate list sealed for a
// membership test, or Rederive's set — comes from the scratch pool's int32
// slabs (scratch.go), zeroed, and goes back to it on Clear.
//
// find performs only loads, so any number of goroutines may probe a relation
// no one is mutating — the parallel executor's workers probing the
// iteration-frozen Derived.
type rowTable struct {
	slots []int32 // 0 = empty, else packSlot(tagOf(hash of its row), row id): a uint32 in an int32 word, as the Value pool hands them out
	shift uint8   // 64 - log2(len(slots)): a slot index is the hash's high bits
	used  int     // occupied slots == rows in the arena
}

const (
	hashMul      = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd
	minTableSize = 8

	slotRowBits  = 25
	slotRowMask  = 1<<slotRowBits - 1
	maxTableRows = 1 << slotRowBits // row ids a slot can name
)

// noRowSlots backs every table without slots of its own (newRowTable), so
// find needs no nil check. A one-slot table is over the load limit before
// its first add, which keeps the shared slot empty.
var noRowSlots [1]int32

func newRowTable() rowTable { return rowTable{slots: noRowSlots[:]} }

// hashRow hashes a tuple with one multiply per 64 bits of it (arity <= 2,
// the hot shape) or per column (wider). Slot indexes come from the high bits,
// which depend on every input bit.
func hashRow(t []Value) uint64 {
	if len(t) <= 2 {
		k := uint64(uint32(t[0]))
		if len(t) == 2 {
			k |= uint64(uint32(t[1])) << 32
		}
		return k * hashMul
	}
	var h uint64
	for _, v := range t {
		h = (h ^ uint64(uint32(v))) * hashMul
	}
	return h
}

// HashRow is hashRow for structures outside the package that key rows the
// way the row tables do (a pool worker's repeat filter, interp.RowList).
func HashRow(t []Value) uint64 { return hashRow(t) }

// tagOf is the slot tag of hash h: seven bits the slot index does not use
// (for tables below 2^25 slots), 0 folded onto 1 so that no occupied slot is
// 0. It comes shifted into a slot's tag bits.
func tagOf(h uint64) uint32 {
	t := uint32(h>>32) & 0x7f
	t += (t - 1) >> 31 // 0 -> 1
	return t << slotRowBits
}

// packSlot is the slot naming row under tag (tagOf). A row id past 25 bits
// panics: the table cannot name it.
func packSlot(tag uint32, row int32) int32 {
	if uint32(row) >= maxTableRows {
		panic(tooManyRows)
	}
	return int32(tag | uint32(row))
}

// slotRow is the row id packed in an occupied slot.
func slotRow(s int32) int32 { return s & slotRowMask }

// tooManyRows is the panic of a relation past maxTableRows rows.
const tooManyRows = "storage: a relation holds at most 2^25 rows: its row table's slots name 25-bit row ids"

func sameRow(a, t []Value) bool {
	if len(t) == 2 {
		return a[0] == t[0] && a[1] == t[1]
	}
	for i, v := range t {
		if a[i] != v {
			return false
		}
	}
	return true
}

// find looks tuple t (hash h) up among arena's rows. It returns t's row id,
// or -1 and the empty slot that ends t's probe sequence.
func (tb *rowTable) find(arena []Value, t []Value, h uint64) (row int32, slot int) {
	slots := tb.slots
	mask := len(slots) - 1
	tag := tagOf(h)
	for i := int(h>>(tb.shift&63)) & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return -1, i
		}
		if uint32(s)^tag < maxTableRows {
			row := slotRow(s)
			off := int(row) * len(t)
			if sameRow(arena[off:off+len(t)], t) {
				return row, i
			}
		}
	}
}

// add enters row (hash h), which the arena already holds, at slot — the
// empty slot find returned for it — growing the table first when it is full;
// scratch marks a delta's table (the capacity rule).
func (tb *rowTable) add(arena []Value, arity int, slot int, row int32, h uint64, scratch bool) {
	if (tb.used+1)*8 > len(tb.slots)*5 {
		// The arena already ends with the new row, so the refill enters it.
		tb.alloc(max(2*len(tb.slots), minTableSize), scratch)
		tb.fill(arena, arity, scratch)
		return
	}
	tb.slots[slot] = packSlot(tagOf(h), row)
	tb.used++
}

// alloc replaces the slots with an empty table of the given size.
func (tb *rowTable) alloc(slots int, scratch bool) {
	if scratch {
		tb.give()
		tb.slots = valueSlabs.takeZeroed(slots)
	} else {
		tb.slots = make([]int32, slots)
	}
	tb.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
	tb.used = 0
}

// fill enters every row of arena into the empty table in arena order,
// allocating once if they would not fit under the load limit.
func (tb *rowTable) fill(arena []Value, arity int, scratch bool) {
	n := len(arena) / arity
	if n > maxTableRows {
		panic(tooManyRows)
	}
	slots := max(len(tb.slots), minTableSize)
	for n*8 > slots*5 {
		slots *= 2
	}
	if slots != len(tb.slots) {
		if n == 0 {
			return
		}
		tb.alloc(slots, scratch)
	}
	tab, mask := tb.slots, slots-1
	for row, off := 0, 0; row < n; row, off = row+1, off+arity {
		h := hashRow(arena[off : off+arity])
		i := int(h>>(tb.shift&63)) & mask
		for tab[i] != 0 {
			i = (i + 1) & mask
		}
		tab[i] = int32(tagOf(h) | uint32(row))
	}
	tb.used = n
}

// reset empties the table in place. A table whose last fill used under an
// eighth of its slots is halved first (released entirely at the minimum
// size), so one large iteration does not pin its capacity for the rest of a
// run while a steady refill never reallocates.
func (tb *rowTable) reset(scratch bool) {
	switch {
	case tb.used*8 >= len(tb.slots):
		clear(tb.slots)
		tb.used = 0
	case len(tb.slots) > minTableSize:
		tb.alloc(len(tb.slots)/2, scratch)
	default:
		tb.release(scratch)
	}
}

// release gives the whole table back: to the scratch pool on a delta.
func (tb *rowTable) release(scratch bool) {
	if scratch {
		tb.give()
	}
	*tb = newRowTable()
}

// give files a delta's slots in the scratch pool; noRowSlots stays.
func (tb *rowTable) give() {
	if len(tb.slots) >= minTableSize {
		valueSlabs.give(tb.slots)
	}
}
