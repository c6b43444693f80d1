package interp

import (
	"slices"

	"carac/internal/storage"
)

// chunkValues is the size of every RowList chunk in values: 4096 binary rows.
// A list of arity a packs chunkValues/a rows into each chunk, so chunks of
// every arity are interchangeable in the scratch pool they come from.
const (
	chunkBits   = 13
	chunkValues = 1 << chunkBits
)

// filterWays is the associativity of AppendNew's repeat filter: a row may sit
// in any of the filterWays slots of its set, the most recent first. A slot
// holds a listed row's position (row index + 1, 0 empty) in its low posBits
// bits and eight bits of the row's hash above them, so a probe reads back
// only the rows whose tag matches; rows past 1<<posBits-1 are not filtered.
const (
	filterWays = 4
	posBits    = 24
	posMask    = 1<<posBits - 1
)

// RowList is an append-only list of rows of one arity, held in fixed-size
// chunks: it never copies a row once written and keeps no row table, so it is
// not a set. It is what a pool worker writes its derivations into between
// barriers, where the coordinator folds them through PredicateDB.Emit.
// Not safe for concurrent use.
type RowList struct {
	arity  int
	per    int // rows per chunk
	n      int
	chunks [][]storage.Value
	tail   []storage.Value // the last chunk, per rows long
	used   int             // values of tail written
	// seen is AppendNew's repeat filter, one chunk taken on first use: sets
	// of filterWays tagged list positions picked by the row's hash.
	seen []storage.Value
}

// NewRowList returns an empty list of rows of the given arity, at least 1,
// whose chunks come from the scratch pool (storage.TakeScratch) as it grows
// and go back to it on release.
func NewRowList(arity int) *RowList {
	return &RowList{arity: arity, per: chunkValues / arity}
}

// Len returns the number of rows appended.
func (l *RowList) Len() int { return l.n }

// Append copies row, of the list's arity, to the end of the list.
func (l *RowList) Append(row []storage.Value) {
	if l.used+l.arity > len(l.tail) {
		l.tail = storage.TakeScratch(chunkValues)[:l.per*l.arity]
		l.chunks = append(l.chunks, l.tail)
		l.used = 0
	}
	copy(l.tail[l.used:l.used+l.arity], row)
	l.used += l.arity
	l.n++
}

// AppendNew appends row unless the list's repeat filter remembers an equal row
// already in it, and reports whether it appended. The filter is a
// set-associative cache of the positions of recently appended rows, one chunk
// of slots: it drops most of the repeats rules find — CSPA's find each new
// fact about twenty times over — at no cost in memory beyond that chunk, but
// not every one, so the list is still not a set.
func (l *RowList) AppendNew(row []storage.Value) bool {
	if l.n >= posMask {
		l.Append(row)
		return true
	}
	if l.seen == nil {
		l.seen = storage.TakeScratch(chunkValues)[:chunkValues]
		clear(l.seen)
	}
	h := storage.HashRow(row)
	set := l.seen[int(h>>(64-chunkBits))&^(filterWays-1):][:filterWays]
	tag := uint32(h>>16) &^ posMask // hash bits 40-47: the set index uses 51-63
	for _, e := range set {
		if e := uint32(e); e&^posMask == tag && e&posMask != 0 && slices.Equal(l.row(int(e&posMask)-1), row) {
			return false
		}
	}
	l.Append(row)
	copy(set[1:], set)
	set[0] = storage.Value(tag | uint32(l.n))
	return true
}

// row returns row i.
func (l *RowList) row(i int) []storage.Value {
	off := i % l.per * l.arity
	return l.chunks[i/l.per][off : off+l.arity]
}

// Each calls f for every row in append order until f returns false.
func (l *RowList) Each(f func(row []storage.Value) bool) { l.each(0, l.n, f) }

// each calls f for rows [lo, hi) in append order until f returns false.
func (l *RowList) each(lo, hi int, f func(row []storage.Value) bool) {
	a := l.arity
	for i := lo; i < hi; {
		c := l.chunks[i/l.per]
		for off := i % l.per * a; i < hi && off < len(c); off += a {
			if !f(c[off : off+a : off+a]) {
				return
			}
			i++
		}
	}
}

// release empties the list and gives its chunks, the filter's too, back to
// the scratch pool.
func (l *RowList) release() {
	if l.seen != nil {
		storage.GiveScratch(l.seen)
		l.seen = nil
	}
	for _, c := range l.chunks {
		storage.GiveScratch(c)
	}
	clear(l.chunks)
	l.chunks = l.chunks[:0]
	l.tail, l.used, l.n = nil, 0, 0
}

// segment is the rows [lo, hi) task appended to a worker's list.
type segment struct {
	task   int
	pred   storage.PredID
	list   *RowList
	lo, hi int
}

// workerOut is a pool worker's output between barriers: one RowList per
// predicate it derives into, shared by every task the worker runs, with each
// task's rows recorded as segments so the barrier folds them in task order —
// whichever worker ran the task. A list's repeat filter also drops rows equal
// to ones the worker's earlier tasks appended; a worker takes its tasks in
// increasing task order, so such a row has an equal one earlier in the fold,
// and the fold stages the same first occurrences whatever the scheduling.
type workerOut struct {
	lists []outList
	segs  []segment // every task's segments since the last release, in the order the tasks ran
	next  int       // the fold's cursor in segs
}

type outList struct {
	pred storage.PredID
	list *RowList
	mark int // end of the rows already credited to a task
}

// sink returns the worker's list for pred, a predicate of the given arity.
// The lists are kept in predicate order.
func (o *workerOut) sink(pred storage.PredID, arity int) *RowList {
	i := 0
	for ; i < len(o.lists) && o.lists[i].pred <= pred; i++ {
		if o.lists[i].pred == pred {
			return o.lists[i].list
		}
	}
	l := NewRowList(arity)
	o.lists = slices.Insert(o.lists, i, outList{pred: pred, list: l})
	return l
}

// endTask credits the rows appended since the previous endTask to task, the
// task that just ran.
func (o *workerOut) endTask(task int) {
	for i := range o.lists {
		e := &o.lists[i]
		if n := e.list.Len(); n > e.mark {
			o.segs = append(o.segs, segment{task: task, pred: e.pred, list: e.list, lo: e.mark, hi: n})
			e.mark = n
		}
	}
}

// release gives every list's chunks back to the scratch pool; the lists and
// the segment buffer stay, empty, for the next barrier's tasks.
func (o *workerOut) release() {
	for i := range o.lists {
		o.lists[i].list.release()
		o.lists[i].mark = 0
	}
	clear(o.segs)
	o.segs, o.next = o.segs[:0], 0
}

// foldSegments passes every row the workers' tasks wrote to f, task by task
// in task order, each task's segments in predicate order. Each worker ran
// its tasks in increasing task order — the pool hands them out from one
// counter — so the fold merges the workers' segment lists.
func foldSegments(workers []*workerState, f func(pred storage.PredID, row []storage.Value)) {
	for {
		var o *workerOut
		for _, ws := range workers {
			if w := &ws.out; w.next < len(w.segs) && (o == nil || w.segs[w.next].task < o.segs[o.next].task) {
				o = w
			}
		}
		if o == nil {
			return
		}
		s := o.segs[o.next]
		o.next++
		s.list.each(s.lo, s.hi, func(row []storage.Value) bool {
			f(s.pred, row)
			return true
		})
	}
}
