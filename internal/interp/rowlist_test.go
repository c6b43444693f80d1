package interp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"carac/internal/storage"
)

// refillBytes reports the fewest bytes one of three calls of fill allocates
// after a first, with the collector, which would free the scratch pool's
// slabs, off.
func refillBytes(fill func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fill()
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fill()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkRefill fails t unless fill allocates nothing once warm: release gave
// every chunk back.
func checkRefill(t *testing.T, what string, fill func()) {
	t.Helper()
	if b := refillBytes(fill); b != 0 {
		t.Errorf("%s allocates %d B, want 0: release kept a chunk", what, b)
	}
}

// TestRowListChunks appends across chunk boundaries at arities 1–4 and reads
// the rows back in append order, whole and by segment; at the barrier every
// chunk goes back to the scratch pool, so a second fill of the same size
// allocates nothing.
func TestRowListChunks(t *testing.T) {
	for arity := 1; arity <= 4; arity++ {
		per := chunkValues / arity
		n := 2*per + per/2 // three chunks, the last half full
		row := func(i int) []storage.Value {
			r := make([]storage.Value, arity)
			for c := range r {
				r[c] = storage.Value(i*arity + c)
			}
			return r
		}
		ws := &workerState{}
		out := &ws.out
		for fill := 0; fill < 2; fill++ {
			l := out.sink(storage.PredID(arity), arity)
			for i := 0; i < n; i++ {
				l.Append(row(i))
			}
			if l.Len() != n {
				t.Fatalf("arity %d: Len %d, want %d", arity, l.Len(), n)
			}
			i := 0
			l.Each(func(r []storage.Value) bool {
				for c, v := range r {
					if v != row(i)[c] {
						t.Fatalf("arity %d: row %d reads %v, want %v", arity, i, r, row(i))
					}
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("arity %d: Each visited %d rows, want %d", arity, i, n)
			}
			// Two tasks' segments, split inside the second chunk.
			out.endTask(0)
			if seg := out.segs; len(seg) != 1 || seg[0].lo != 0 || seg[0].hi != n {
				t.Fatalf("arity %d: segment %+v, want [0, %d)", arity, seg, n)
			}
			out.segs[0].hi = per + 3
			out.segs = append(out.segs, segment{task: 1, pred: out.segs[0].pred, list: l, lo: per + 3, hi: n})
			i = 0
			foldSegments([]*workerState{ws}, func(_ storage.PredID, r []storage.Value) {
				if r[0] != row(i)[0] {
					t.Fatalf("arity %d: fold row %d reads %v, want %v", arity, i, r, row(i))
				}
				i++
			})
			if i != n {
				t.Fatalf("arity %d: fold visited %d rows, want %d", arity, i, n)
			}
			out.release()
			if l.Len() != 0 {
				t.Fatalf("arity %d: released list holds %d rows", arity, l.Len())
			}
		}
		buf := make([]storage.Value, arity)
		checkRefill(t, fmt.Sprintf("arity %d: a second fill of %d rows", arity, n), func() {
			l := out.sink(storage.PredID(arity), arity)
			for i := 0; i < n; i++ {
				buf[0] = storage.Value(i)
				l.Append(buf)
			}
			out.release()
		})
	}
}

// TestRowListTaskOrder: segments credit each task with the rows it appended,
// so tasks that two workers interleave fold in task order.
func TestRowListTaskOrder(t *testing.T) {
	a, b := &workerState{}, &workerState{}
	// Worker a runs tasks 0, 3 and 4, worker b tasks 1 and 2 (task 2
	// derives nothing), finishing in the order listed; each worker takes its
	// tasks in increasing order, as the pool's counter hands them out.
	for _, task := range []struct {
		w  *workerState
		ti int
	}{{b, 1}, {a, 0}, {b, 2}, {a, 3}, {a, 4}} {
		if task.ti != 2 {
			task.w.out.sink(0, 1).Append([]storage.Value{storage.Value(task.ti)})
			task.w.out.sink(0, 1).Append([]storage.Value{storage.Value(task.ti)})
		}
		task.w.out.endTask(task.ti)
	}
	var got []storage.Value
	foldSegments([]*workerState{a, b}, func(_ storage.PredID, r []storage.Value) { got = append(got, r[0]) })
	want := []storage.Value{0, 0, 1, 1, 3, 3, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("folded %v, want %v", got, want)
		}
	}
}

// TestRowListAppendNew: the repeat filter drops a row appended again while
// its set still remembers it, never drops a new row — also once there are
// more rows than slots — and its chunk goes back to the scratch pool with the
// list's, so a second fill allocates nothing.
func TestRowListAppendNew(t *testing.T) {
	const n = 3 * chunkValues // rows: three times the filter's slots
	l := NewRowList(2)
	for fill := 0; fill < 2; fill++ {
		for i := 0; i < n; i++ {
			r := []storage.Value{storage.Value(i), storage.Value(i / 7)}
			if !l.AppendNew(r) {
				t.Fatalf("fill %d: new row %v dropped", fill, r)
			}
			if l.AppendNew(r) {
				t.Fatalf("fill %d: repeat of %v appended", fill, r)
			}
		}
		if last := []storage.Value{n - 1, (n - 1) / 7}; l.AppendNew(last) {
			t.Fatalf("fill %d: repeat of the last row appended", fill)
		}
		if l.Len() != n {
			t.Fatalf("fill %d: Len %d, want %d", fill, l.Len(), n)
		}
		i := 0
		l.Each(func(r []storage.Value) bool {
			if r[0] != storage.Value(i) || r[1] != storage.Value(i/7) {
				t.Fatalf("fill %d: row %d reads %v", fill, i, r)
			}
			i++
			return true
		})
		l.release()
	}
	r := make([]storage.Value, 2)
	checkRefill(t, "a second fill through the repeat filter", func() {
		for i := 0; i < n; i++ {
			r[0], r[1] = storage.Value(i), storage.Value(i/7)
			l.AppendNew(r)
		}
		l.release()
	})
}
