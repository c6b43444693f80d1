package storage

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// checkMorselCover asserts the morsel property of a pool's reads: n tasks,
// task i reading rows [L·i/n, L·(i+1)/n) of the L rows below bound
// (Morsel), visit every row below the bound exactly once and no other —
// through Scan, and through ScanKey on each column and on both (index
// chains where one is registered, filtered scans elsewhere), for a key that
// hits and one that misses. Concatenated in task order, the tasks' reads are
// the rows in insertion order.
func checkMorselCover(t *testing.T, r *Relation, tasks, bound int) {
	t.Helper()
	rows := r.Snapshot()
	below := rows[:min(bound, len(rows))]
	keys := [][]Value{{-1, -1}}
	if len(below) > 0 {
		keys = append(keys, below[len(below)/2])
	}
	for _, key := range keys {
		for _, cols := range [][]int{nil, {0}, {1}, {0, 1}} {
			vals := project(key, cols)
			var want, got [][]Value
			for _, row := range below {
				if coversKey(row, cols, vals) {
					want = append(want, row)
				}
			}
			visit := func(row []Value) bool {
				got = append(got, slices.Clone(row))
				return true
			}
			for i := range tasks {
				from, to := Morsel(len(below), i, i+1, tasks)
				if cols == nil {
					r.Scan(from, to, visit)
				} else {
					r.ScanKey(from, to, cols, vals, visit)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d morsels below row %d read %v = %v as %v, want %v", r.name, tasks, bound, cols, vals, got, want)
			}
		}
	}
}

// morselOps applies one decoded operation to a relation: insert, a run of
// consecutive keys, Clear, ClearRetain, TruncateTo, or DeleteRows of a
// batch. A delta's indexes are ensured after each, as a plan ensures them
// before it reads.
type morselOps struct{ r *Relation }

func (o morselOps) apply(op, arg byte) {
	r := o.r
	switch {
	case op >= 200 && op < 205:
		// Delete every row whose first column is at most the operand, plus
		// one absent tuple.
		doomed := [][]Value{{-1, -1}}
		r.Each(func(row []Value) bool {
			if row[0] <= Value(arg%64) {
				doomed = append(doomed, slices.Clone(row))
			}
			return true
		})
		r.DeleteRows(doomed, 0)
	case op >= 205 && op < 210:
		r.TruncateTo(r.Len() * int(arg) / 256)
	case op >= 210 && op < 213:
		r.Clear()
	case op >= 213 && op < 215:
		r.ClearRetain()
	case op >= 215 && op < 220:
		// Incremental batch: a run of consecutive keys (the dense-id
		// pattern incremental fact loads produce).
		for j := Value(0); j < 8; j++ {
			r.Insert([]Value{Value(arg) + j, Value(op)})
		}
	default:
		r.Insert([]Value{Value(op % 32), Value(arg)})
	}
	r.EnsureIndexes()
}

// newMorselRelation returns an empty relation indexed on column 0 and on
// both columns: Derived's eager indexes, or a delta's lazy ones.
func newMorselRelation(name string, delta bool) *Relation {
	r := NewRelation(name, 2)
	r.lazy = delta
	r.BuildIndex(0)
	r.BuildCompositeIndex([]int{0, 1})
	return r
}

// morselBound decodes a row bound: all rows, or one at most two past them.
func morselBound(r *Relation, sel byte) int {
	if sel%4 == 0 {
		return AllRows
	}
	return int(sel) % (r.Len() + 2)
}

// FuzzShardRouting drives a relation through arbitrary insert / clear /
// truncate / delete sequences decoded from the fuzz input and checks after
// every operation that the morsels of a random task count cover the rows
// below a random bound exactly once (checkMorselCover). Run the short-fuzz
// CI job with:
// go test -fuzz=FuzzShardRouting -fuzztime=20s ./internal/storage/
func FuzzShardRouting(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 1, 255, 9, 200, 1, 1, 2})
	f.Add(uint8(7), uint8(0), []byte{220, 5, 5, 200, 0, 5, 6, 5, 7, 207, 33, 9, 9})
	f.Add(uint8(16), uint8(1), []byte{9, 9, 9, 9, 9, 9, 210, 2, 3, 4, 213, 0, 216, 40})
	f.Fuzz(func(t *testing.T, ntasks, delta uint8, data []byte) {
		o := morselOps{newMorselRelation("fuzz", delta%2 == 1)}
		for i := 0; i+1 < len(data); i += 2 {
			o.apply(data[i], data[i+1])
			tasks := 1 + int(ntasks^data[i])%17
			checkMorselCover(t, o.r, tasks, morselBound(o.r, ntasks^data[i+1]))
		}
	})
}

// TestShardRoutingProperty is the deterministic slice of the fuzz property:
// pseudo-random operation sequences over Derived-like and delta relations;
// and, at every rotation of a TC fixpoint, the morsels of δ — a view of
// Derived's newest rows — and of Old, Derived below OldBound.
func TestShardRoutingProperty(t *testing.T) {
	for _, delta := range []bool{false, true} {
		o := morselOps{newMorselRelation(fmt.Sprint("prop delta=", delta), delta)}
		rng := uint64(0x9e3779b97f4a7c15)
		next := func() byte {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return byte(rng)
		}
		for step := 0; step < 400; step++ {
			op := next()
			if op >= 200 && next()%4 != 0 {
				op %= 200 // keep inserts the common case
			}
			o.apply(op, next())
			checkMorselCover(t, o.r, 1+int(next())%17, morselBound(o.r, next()))
		}
	}

	c := NewCatalog()
	tc := c.Pred(c.Declare("tc", 2))
	tc.BuildIndexes([]int{0})
	tc.BuildCompositeIndexes([][]int{{0, 1}})
	tcRun(tc, chainEdges(30), false, func(iter int, _ [][]Value) {
		tc.DeltaKnown.EnsureIndexes()
		for _, tasks := range []int{1, 3, 8, 13} {
			checkMorselCover(t, tc.DeltaKnown, tasks, AllRows)
			checkMorselCover(t, tc.Derived, tasks, tc.OldBound())
		}
	}, func(string) {})
}
