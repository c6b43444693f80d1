package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"carac/internal/ir"
	"carac/internal/parser"
	"carac/internal/storage"
)

// runSrcPool mirrors runSrc (indexed, semi-naive) with an optional worker
// pool forced to fan out every non-empty iteration as up to 4 morsel tasks
// per rule, and returns the catalog and stats.
func runSrcPool(t *testing.T, src string, parallel bool) (*storage.Catalog, Stats) {
	t.Helper()
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		cat.Pred(pid).BuildIndexes(cols)
	}
	in := New(cat, nil)
	if parallel {
		in.Parallel, in.Shards, in.Workers, in.FanoutThreshold = true, 4, 4, 1
	}
	if err := in.Run(root); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cat, in.Stats
}

func catalogsEqual(t *testing.T, a, b *storage.Catalog) {
	t.Helper()
	for _, p := range a.Preds() {
		bp, ok := b.PredByName(p.Name)
		if !ok {
			t.Fatalf("predicate %s missing", p.Name)
		}
		if p.Derived.Len() != bp.Derived.Len() {
			t.Fatalf("pred %s: %d vs %d tuples", p.Name, p.Derived.Len(), bp.Derived.Len())
		}
		p.Derived.Each(func(row []storage.Value) bool {
			if !bp.Derived.Contains(row) {
				t.Fatalf("pred %s: tuple %v missing", p.Name, row)
			}
			return true
		})
	}
}

// checkPoolEqualsSequential runs src sequentially and on the pool, and wants
// the same fixpoint with the pool's merge barrier having run.
func checkPoolEqualsSequential(t *testing.T, src string) {
	t.Helper()
	seq, _ := runSrcPool(t, src, false)
	par, stats := runSrcPool(t, src, true)
	catalogsEqual(t, seq, par)
	if stats.MergeTasks == 0 {
		t.Fatal("the pool never ran: no worker buffer was folded")
	}
}

func TestParallelUnionsEqualSequential(t *testing.T) {
	// Mutual recursion gives multiple UnionAllOps per iteration to fan out.
	checkPoolEqualsSequential(t, `
.decl n(x:number)
.decl even(x:number)
.decl odd(x:number)
.decl both(x:number, y:number)
n(40).
even(0).
odd(y) :- even(x), y = x + 1, n(m), y <= m.
even(y) :- odd(x), y = x + 1, n(m), y <= m.
both(x, y) :- even(x), odd(y), y = x + 1.
`)
}

func TestParallelCSPAShape(t *testing.T) {
	src := `
.decl Assign(a:number, b:number)
.decl VaFlow(a:number, b:number)
.decl VAlias(a:number, b:number)
VaFlow(x, y) :- Assign(x, y).
VaFlow(x, y) :- VaFlow(x, z), VaFlow(z, y).
VAlias(x, y) :- VaFlow(z, x), VaFlow(z, y).
`
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		src += "Assign(" + itoa(rng.Intn(20)) + "," + itoa(rng.Intn(20)) + ").\n"
	}
	checkPoolEqualsSequential(t, src)
}

// fanoutFixture builds a single-predicate catalog whose δ holds rows rows,
// and an Interp at FanoutThreshold 1 plus loop node ready for chooseFanout.
func fanoutFixture(shards, workers, rows int) (*Interp, *ir.DoWhileOp) {
	cat := storage.NewCatalog()
	id := cat.Declare("p", 2)
	pd := cat.Pred(id)
	for i := range rows {
		pd.DeltaKnown.Insert([]storage.Value{storage.Value(i % 3), storage.Value(i)})
	}
	in := New(cat, nil)
	in.Parallel = true
	in.Shards = shards
	in.Workers = workers
	in.FanoutThreshold = 1
	return in, &ir.DoWhileOp{Preds: []storage.PredID{id}}
}

// TestFanoutClampsToDeltaRows: at FanoutThreshold 1 the fan-out decision
// gives every non-empty iteration min(delta rows, Shards) tasks per rule
// (with Shards <= 4 x workers) — three δ rows make three morsels of one row,
// not eight of which five are empty but still pay task dispatch — and never
// more than 4 x workers. An empty delta runs on the sequential path.
func TestFanoutClampsToDeltaRows(t *testing.T) {
	for _, c := range []struct{ shards, workers, rows, want int }{
		{8, 2, 3, 3},
		{8, 2, 8, 8},
		{8, 2, 100, 8},
		{8, 1, 100, 4},
		{1, 2, 100, 1},
		{8, 2, 0, 0},
	} {
		in, loop := fanoutFixture(c.shards, c.workers, c.rows)
		if tasks := in.chooseFanout(loop); tasks != c.want {
			t.Errorf("Shards %d, %d workers, %d δ rows: tasks = %d, want %d", c.shards, c.workers, c.rows, tasks, c.want)
		}
	}
}

// cancellingYielder cancels the run from inside a subquery, at its at-th
// poll, and never asks for a yield.
type cancellingYielder struct{ at, polls int }

func (c *cancellingYielder) Enter(ir.Op, *Interp) func() error { return nil }

func (c *cancellingYielder) ShouldYield(_ ir.Op, in *Interp) bool {
	if c.polls++; c.polls == c.at {
		in.Cancel()
	}
	return false
}

// TestCancelMidPlan: a cancellation that arrives while a subquery is scanning
// stops the scan at the next row — no further polls — and the run returns
// ErrCancelled with no staged rows left behind.
func TestCancelMidPlan(t *testing.T) {
	src := ".decl edge(x:number, y:number)\n.decl tc(x:number, y:number)\n"
	for i := 0; i < 30; i++ {
		src += "edge(" + itoa(i) + "," + itoa(i+1) + ").\n"
	}
	src += "tc(x,y) :- edge(x,y).\ntc(x,y) :- tc(x,z), edge(z,y).\n"
	cat := storage.NewCatalog()
	res, err := parser.Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &cancellingYielder{at: 5}
	if err := New(cat, ctrl).Run(root); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if ctrl.polls != ctrl.at {
		t.Fatalf("the subquery polled %d times, want it stopped at poll %d", ctrl.polls, ctrl.at)
	}
	if tc, _ := cat.PredByName("tc"); tc.Derived.Len() != 0 {
		t.Fatalf("|tc| = %d after a run cancelled in its first subquery, want 0", tc.Derived.Len())
	}
}

// TestRestrictedPlanReadsItsMorsel: a plan restricted to a morsel reads
// only those rows of δ — through its scan, or through a probe's chain walk
// when δ is the inner atom — so n tasks over a δ's morsels derive exactly
// what one unrestricted plan derives, each match once.
func TestRestrictedPlanReadsItsMorsel(t *testing.T) {
	cat := storage.NewCatalog()
	res, err := parser.Parse(`
.decl edge(x:number, y:number)
.decl tc(x:number, y:number)
edge(1,2). edge(2,3). edge(3,4).
tc(x,y) :- edge(x,y).
tc(x,y) :- tc(x,z), edge(z,y).
`, cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ir.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := cat.PredByName("tc")
	edge, _ := cat.PredByName("edge")
	tc.RegisterIndex(storage.RoleDelta, []int{1})
	edge.RegisterIndex(storage.RoleDerived, []int{0})
	for i := range storage.Value(40) {
		tc.DeltaKnown.Insert([]storage.Value{i % 7, i % 5})
	}
	tc.DeltaKnown.EnsureIndexes()
	var recs []*ir.SPJOp
	ir.Walk(root, func(o ir.Op) {
		if s, ok := o.(*ir.SPJOp); ok && s.DeltaAtom() >= 0 {
			recs = append(recs, s)
		}
	})
	for _, rec := range recs {
		for _, deltaFirst := range []bool{true, false} {
			// δ as the outer scan, or as the inner probe keyed by edge.
			if (rec.Atoms[0].Src == ir.SrcDelta) != deltaFirst {
				rec.Atoms[0], rec.Atoms[1] = rec.Atoms[1], rec.Atoms[0]
				rec.DeltaIdx = rec.DeltaAtom()
			}
			read := func(task, tasks int) []string {
				plan, err := BuildPlan(rec, cat)
				if err != nil {
					t.Fatal(err)
				}
				if tasks > 1 {
					sub := &Interp{Cat: cat, task: task, tasks: tasks}
					sub.applyMorsel(plan)
					if !plan.Morsel || plan.Steps[plan.MorselStep].Src != ir.SrcDelta {
						t.Fatalf("the morsel restricts step %d, not the δ read", plan.MorselStep)
					}
				}
				var got []string
				plan.Execute(cat, func(head, _ []storage.Value) { got = append(got, fmt.Sprint(head)) })
				return got
			}
			want := read(0, 1)
			if len(want) == 0 {
				t.Fatal("the fixture derives nothing")
			}
			for _, tasks := range []int{2, 3, 8, 60} {
				var got []string
				for i := range tasks {
					got = append(got, read(i, tasks)...)
				}
				slices.Sort(got)
				sorted := slices.Sorted(slices.Values(want))
				if !slices.Equal(got, sorted) {
					t.Fatalf("δ first %v: %d morsel tasks derived %v, want %v", deltaFirst, tasks, got, sorted)
				}
			}
		}
	}
	if edge.Derived.Len() != 3 {
		t.Fatalf("edge holds %d rows", edge.Derived.Len())
	}
}
