package storage

// This file provides the generic relational operators of the relational
// layer API (paper §V-D): select, project, join, and union, in both
// push-based (callback) and pull-based (iterator) styles. The fixpoint
// executor uses specialized fused variants of these for the hot path; the
// generic forms back the baseline engines, tests, and property checks.

// Pred is a tuple predicate used by Select.
type Pred func(row []Value) bool

// SelectInto appends the tuples of src satisfying p into dst and returns dst.
func SelectInto(dst *Relation, src *Relation, p Pred) *Relation {
	src.Each(func(row []Value) bool {
		if p(row) {
			dst.Insert(row)
		}
		return true
	})
	return dst
}

// ProjectInto appends π_cols(src) into dst and returns dst. dst's arity must
// equal len(cols).
func ProjectInto(dst *Relation, src *Relation, cols []int) *Relation {
	out := make([]Value, len(cols))
	src.Each(func(row []Value) bool {
		for i, c := range cols {
			out[i] = row[c]
		}
		dst.Insert(out)
		return true
	})
	return dst
}

// UnionInto appends all tuples of each src into dst and returns dst.
func UnionInto(dst *Relation, srcs ...*Relation) *Relation {
	for _, s := range srcs {
		dst.InsertAll(s)
	}
	return dst
}

// JoinInto computes the equi-join of l and r on l.lcol = r.rcol, emitting
// the concatenation of the two rows into dst (arity l.Arity()+r.Arity()).
// It probes r's hash index on rcol when one exists, otherwise builds a
// transient one, so the cost is O(|l| + |r| + |out|).
func JoinInto(dst *Relation, l, r *Relation, lcol, rcol int) *Relation {
	if !r.HasIndex(rcol) && r.subs == nil {
		// Transient build side: a read-only shadow of r carrying this index.
		build := NewRelation(r.name, r.arity)
		build.arena = r.arena
		build.BuildIndex(rcol)
		r = build
	}
	out := make([]Value, l.Arity()+r.Arity())
	l.Each(func(lrow []Value) bool {
		copy(out, lrow)
		r.EachProbe(rcol, lrow[lcol], func(rrow []Value) bool {
			copy(out[len(lrow):], rrow)
			dst.Insert(out)
			return true
		})
		return true
	})
	return dst
}

// DiffInto appends the tuples of a that are not in b into dst and returns
// dst. a and b must share arity.
func DiffInto(dst *Relation, a, b *Relation) *Relation {
	a.Each(func(row []Value) bool {
		if !b.Contains(row) {
			dst.Insert(row)
		}
		return true
	})
	return dst
}

// Iterator is the pull-based access path over a relation: Next returns rows
// until exhaustion. It is invalidated by concurrent inserts.
type Iterator struct {
	rel *Relation
	pos int32
	n   int32
}

// Iter returns a pull-based iterator over r's current tuples.
func (r *Relation) Iter() *Iterator {
	return &Iterator{rel: r, n: int32(r.Len())}
}

// Next returns the next row, or (nil, false) when exhausted.
func (it *Iterator) Next() ([]Value, bool) {
	if it.pos >= it.n {
		return nil, false
	}
	row := it.rel.Row(it.pos)
	it.pos++
	return row, true
}

// Reset rewinds the iterator to the first row.
func (it *Iterator) Reset() { it.pos = 0 }
