package storage

import (
	"fmt"
	"testing"
)

// tcRun runs tc(x,y) :- edge(x,y). tc(x,z) :- tc(x,y), edge(y,z) semi-naively
// over tc's own PredicateDB: the edges are tc's ground facts, seeded with
// SeedAll, and each iteration joins δ with the edges through Emit. After
// every rotation it calls rotated with the rows that rotation published, in
// order, and observe between every step with a label. copying replaces the
// loans with the scheme they replaced: δ′ holds a copy of every seed and
// every new fact.
func tcRun(tc *PredicateDB, edges [][2]Value, copying bool, rotated func(iter int, fresh [][]Value), observe func(label string)) {
	succ := map[Value][]Value{}
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
		tc.AddFact([]Value{e[0], e[1]})
	}
	fresh := tc.Derived.Snapshot()
	emit := tc.Emit
	if copying {
		for _, row := range fresh {
			tc.Seed(row)
		}
		emit = func(t []Value) bool {
			if !tc.Derived.stage(t) {
				return false
			}
			tc.DeltaNew.AppendDistinct(t)
			return true
		}
	} else {
		tc.SeedAll()
	}
	observe("seeded")
	for iter := 0; ; iter++ {
		tc.SwapClear()
		observe(fmt.Sprintf("rotation %d", iter))
		rotated(iter, fresh)
		if tc.DeltaKnown.Empty() {
			return
		}
		fresh = nil
		tc.DeltaKnown.Each(func(row []Value) bool {
			for _, z := range succ[row[1]] {
				if t := []Value{row[0], z}; emit(t) {
					fresh = append(fresh, t)
				}
			}
			return true
		})
		observe(fmt.Sprintf("iteration %d", iter))
	}
}

func chainEdges(n int) [][2]Value {
	var edges [][2]Value
	for i := 0; i < n; i++ {
		edges = append(edges, [2]Value{Value(i), Value(i + 1)}, [2]Value{Value(i), Value((i * 7) % n)})
	}
	return edges
}

// TestSwapClearLendsNewestRows: after each rotation of a flat TC fixpoint δ
// shares Derived's backing array and holds exactly Derived's newest rows —
// the ones the rotation published, in emit order — and δ′ holds none.
func TestSwapClearLendsNewestRows(t *testing.T) {
	c := NewCatalog()
	tc := c.Pred(c.Declare("tc", 2))
	tc.BuildIndexes([]int{0})
	rotations := 0
	tcRun(tc, chainEdges(40), false, func(iter int, fresh [][]Value) {
		rotations++
		d := tc.DeltaKnown
		if len(fresh) == 0 {
			if !d.Empty() || d.lender != nil {
				t.Fatalf("rotation %d: an empty iteration left δ %d rows, borrowed %v", iter, d.Len(), d.lender != nil)
			}
			return
		}
		if !sharesRows(d, tc.Derived) {
			t.Fatalf("rotation %d: δ does not share Derived's backing array", iter)
		}
		if got, want := fmt.Sprint(d.Snapshot()), fmt.Sprint(fresh); got != want {
			t.Fatalf("rotation %d: δ holds %s, want %s", iter, got, want)
		}
		if tc.DeltaNew.Len() != 0 || tc.NewLen() != 0 || len(tc.DeltaNew.arena) != 0 {
			t.Fatalf("rotation %d: δ′ holds rows", iter)
		}
		// δ answers probes over the borrowed rows once ensured.
		d.EnsureIndexes()
		for i := 0; i < d.Len(); i++ {
			row := d.Row(int32(i))
			found := false
			ch, _ := d.Probe(0, row[0])
			for r := ch.First(); r >= 0; r = ch.Next(r) {
				found = found || r == int32(i)
			}
			if !found {
				t.Fatalf("rotation %d: δ's probe misses its row %d", iter, i)
			}
		}
	}, func(string) {})
	if rotations < 5 || tc.Derived.Len() == 0 {
		t.Fatalf("fixture too small: %d rotations, %d facts", rotations, tc.Derived.Len())
	}
	if len(tc.Derived.borrowers) != 0 {
		t.Fatalf("the converged fixpoint left %d loans", len(tc.Derived.borrowers))
	}
}

// TestSeededDeltasOwnRows: a δ′ seeded row by row (the warm starts) holds
// its rows itself, and Emit appends to it; it does not borrow.
func TestSeededDeltasOwnRows(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("p", 2))
	p.AddFact([]Value{1, 2})
	p.AddFact([]Value{2, 3})
	p.Seed([]Value{2, 3})
	p.Emit([]Value{3, 4})
	if p.DeltaNew.Len() != 2 || p.NewLen() != 2 {
		t.Fatalf("a seeded δ′ holds %d rows, want 2", p.DeltaNew.Len())
	}
	p.SwapClear()
	if d := p.DeltaKnown; d.lender != nil || sharesRows(d, p.Derived) || fmt.Sprint(d.Snapshot()) != "[[2 3] [3 4]]" {
		t.Fatalf("a seeded δ borrows or reads %v", d.Snapshot())
	}
}

// TestLendingDriftMatchesCopying: the DriftCounter sequence of a flat TC
// fixpoint, whose δ′ lends, equals the one of the copying scheme — δ′
// appends every seed and every new fact — at every step, mid-iteration
// included.
func TestLendingDriftMatchesCopying(t *testing.T) {
	run := func(copying bool) []string {
		c := NewCatalog()
		tc := c.Pred(c.Declare("tc", 2))
		tc.BuildIndexes([]int{0})
		var seq []string
		tcRun(tc, chainEdges(30), copying, func(int, [][]Value) {}, func(label string) {
			seq = append(seq, fmt.Sprintf("%s: %d", label, tc.DriftCounter()))
		})
		tc.DeltaKnown.Clear()
		tc.DeltaNew.Clear()
		return append(seq, fmt.Sprintf("cleared: %d", tc.DriftCounter()))
	}
	lent, copied := run(false), run(true)
	if fmt.Sprint(lent) != fmt.Sprint(copied) {
		t.Fatalf("drift sequence with lending:\n%v\nwith copying:\n%v", lent, copied)
	}
}

// TestDropStagedForgetsOwedRows: an evaluation stopped mid-iteration leaves
// δ′ owing nothing, so the next one may seed it row by row.
func TestDropStagedForgetsOwedRows(t *testing.T) {
	c := NewCatalog()
	p := c.Pred(c.Declare("p", 1))
	p.AddFact([]Value{1})
	p.SeedAll()
	p.Emit([]Value{2})
	if p.NewLen() != 2 {
		t.Fatalf("δ′ is owed %d rows, want 2", p.NewLen())
	}
	c.DropStaged()
	if p.NewLen() != 0 || p.Derived.Len() != 1 {
		t.Fatalf("after DropStaged δ′ is owed %d rows and Derived holds %d", p.NewLen(), p.Derived.Len())
	}
	p.Seed([]Value{1})
	p.SwapClear()
	if p.DeltaKnown.Len() != 1 || p.DeltaKnown.lender != nil {
		t.Fatal("the reseeded δ")
	}
}

// TestOldBound: Old, Derived less δ, is Derived's rows before the view δ
// borrows — none after SeedAll, every row but the newest iteration's later
// on, so Old and δ always split Derived — and all of Derived (AllRows)
// wherever δ is not such a view: a seeded δ, a loan recalled, or a Derived
// grown past the view.
func TestOldBound(t *testing.T) {
	c := NewCatalog()
	tc := c.Pred(c.Declare("tc", 2))
	tc.BuildIndexes([]int{0})
	tcRun(tc, chainEdges(30), false, func(iter int, fresh [][]Value) {
		want := tc.Derived.Len() - len(fresh) // 0 after SeedAll: fresh is every row
		if got := min(tc.OldBound(), tc.Derived.Len()); got != want || got+tc.DeltaKnown.Len() != tc.Derived.Len() {
			t.Fatalf("rotation %d: Old is %d rows, want %d; δ %d of %d", iter, got, want, tc.DeltaKnown.Len(), tc.Derived.Len())
		}
	}, func(string) {})

	p := c.Pred(c.Declare("p", 2))
	p.AddFact([]Value{1, 2})
	p.Seed([]Value{1, 2})
	p.Emit([]Value{2, 3})
	p.SwapClear()
	if got := p.OldBound(); got != AllRows {
		t.Fatalf("a seeded δ: Old's bound is %d, want all rows", got)
	}

	r := c.Pred(c.Declare("r", 2))
	r.AddFact([]Value{1, 2})
	r.Emit([]Value{2, 3})
	r.SwapClear()
	if got := r.OldBound(); got != 1 {
		t.Fatalf("a borrowed δ: Old is %d rows, want 1", got)
	}
	r.AddFact([]Value{3, 4})
	if got := r.OldBound(); got != AllRows {
		t.Fatalf("a Derived grown past δ's view: Old's bound is %d, want all rows", got)
	}
	r.Derived.TruncateTo(2)
	if got := r.OldBound(); r.DeltaKnown.lender != nil || got != AllRows {
		t.Fatalf("a recalled loan: Old's bound is %d, want all rows", got)
	}
}
