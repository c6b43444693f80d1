package interp

import "carac/internal/storage"

// rowSeg is one contiguous piece of a relational step's input: a probe's
// chain in rel, a row-id list into rel (the degraded-path filter), or all of
// rel.
type rowSeg struct {
	rel   *storage.Relation
	chain storage.Chain // probe result, when probe is set
	rows  []int32       // row-id list; nil (and probe unset) = scan all of rel
	probe bool
}

// start returns the position of the segment's first row.
func (s *rowSeg) start() int {
	if s.probe {
		return int(s.chain.First())
	}
	return 0
}

// at returns the row at position pos and the position after it; ok is false
// when pos is past the segment's end.
func (s *rowSeg) at(pos int) (row []storage.Value, after int, ok bool) {
	switch {
	case s.probe:
		if pos < 0 {
			return nil, 0, false
		}
		return s.rel.Row(int32(pos)), int(s.chain.Next(int32(pos))), true
	case s.rows != nil:
		if pos >= len(s.rows) {
			return nil, 0, false
		}
		return s.rel.Row(s.rows[pos]), pos + 1, true
	default:
		if pos >= s.rel.Len() {
			return nil, 0, false
		}
		return s.rel.Row(int32(pos)), pos + 1, true
	}
}

// SegCursor iterates a relational step's input as a sequence of segments —
// one for a flat relation, one per bucket for a physically sharded relation
// (whose per-bucket row ids are meaningless to the parent) or a bucket-span
// restriction. Reset, add the segments, then Next until it reports the end.
// The bytecode VM's relation iterators are built on it; its buffers are
// reused across Resets.
type SegCursor struct {
	segs    []rowSeg
	si, pos int
	ids     []int32 // backing of AddMatching's lists
}

// Reset empties the cursor for a fresh set of segments.
func (c *SegCursor) Reset() {
	c.segs, c.ids, c.si = c.segs[:0], c.ids[:0], -1
}

// AddScan adds all of rel's rows.
func (c *SegCursor) AddScan(rel *storage.Relation) { c.segs = append(c.segs, rowSeg{rel: rel}) }

// AddList adds rel's rows named by the non-empty list rows.
func (c *SegCursor) AddList(rel *storage.Relation, rows []int32) {
	c.segs = append(c.segs, rowSeg{rel: rel, rows: rows})
}

// AddChain adds a probe result on rel.
func (c *SegCursor) AddChain(rel *storage.Relation, chain storage.Chain) {
	c.segs = append(c.segs, rowSeg{rel: rel, chain: chain, probe: true})
}

// AddMatching adds rel's rows that satisfy keep — the degraded path when an
// expected index is missing at runtime.
func (c *SegCursor) AddMatching(rel *storage.Relation, keep func(row []storage.Value) bool) {
	start := len(c.ids)
	total := int32(rel.Len())
	for i := int32(0); i < total; i++ {
		if keep(rel.Row(i)) {
			c.ids = append(c.ids, i)
		}
	}
	if len(c.ids) > start {
		c.AddList(rel, c.ids[start:len(c.ids):len(c.ids)])
	}
}

// Next returns the next row, or false when the segments are exhausted.
func (c *SegCursor) Next() ([]storage.Value, bool) {
	for c.si < len(c.segs) {
		if c.si >= 0 {
			if row, after, ok := c.segs[c.si].at(c.pos); ok {
				c.pos = after
				return row, true
			}
		}
		if c.si++; c.si < len(c.segs) {
			c.pos = c.segs[c.si].start()
		}
	}
	return nil, false
}
